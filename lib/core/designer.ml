module Q = Pindisk_util.Q
module Intmath = Pindisk_util.Intmath
module Schedule = Pindisk_pinwheel.Schedule

type requirement = {
  id : int;
  name : string;
  bytes : int;
  latency_s : int;
  tolerance : int;
}

let requirement ?name ?(tolerance = 0) ~id ~bytes ~latency_s () =
  if id < 0 then invalid_arg "Designer.requirement: negative id";
  if bytes < 1 then invalid_arg "Designer.requirement: bytes must be >= 1";
  if latency_s < 1 then invalid_arg "Designer.requirement: latency must be >= 1";
  if tolerance < 0 then invalid_arg "Designer.requirement: negative tolerance";
  let name = match name with Some n -> n | None -> Printf.sprintf "F%d" id in
  { id; name; bytes; latency_s; tolerance }

type file_plan = {
  spec : File_spec.t;
  window : int;
  slots_per_period : int;
  delta : int;
}

type t = {
  block_size : int;
  bandwidth : int;
  program : Program.t;
  files : file_plan list;
  utilization : Q.t;
}

(* Every power of two up to the byte rate, largest first. *)
let candidates byte_rate =
  let rec go b acc = if b > byte_rate then acc else go (2 * b) (b :: acc) in
  go 1 []

let specs_for ~block reqs =
  (* None with a reason when the block size is structurally infeasible. *)
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest ->
        let m = Intmath.ceil_div r.bytes block in
        if m + r.tolerance > 255 then
          Error
            (Printf.sprintf
               "%s needs %d+%d dispersed blocks at %d-byte blocks (IDA caps \
                at 255)"
               r.name m r.tolerance block)
        else
          go
            (File_spec.make ~name:r.name ~tolerance:r.tolerance ~id:r.id
               ~blocks:m ~latency:r.latency_s ()
            :: acc)
            rest
  in
  go [] reqs

let plan ~byte_rate reqs =
  if byte_rate < 1 then invalid_arg "Designer.plan: byte_rate must be >= 1";
  if reqs = [] then invalid_arg "Designer.plan: no requirements";
  let ids = List.map (fun r -> r.id) reqs in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Designer.plan: duplicate ids";
  (* Candidates go largest first, so the last reason of each kind is the
     smallest block's. The channel binds once any candidate fits IDA. *)
  let ida_cap = ref "" and unschedulable = ref None in
  let rec scan = function
    | [] -> Error (Option.value !unschedulable ~default:!ida_cap)
    | block :: rest -> (
        let bandwidth = byte_rate / block in
        match specs_for ~block reqs with
        | Error reason ->
            ida_cap := reason;
            scan rest
        | Ok specs -> (
            let demand = Bandwidth.demand specs in
            (* Demand above the slot rate is density above one: no design
               can air it, so none is built. *)
            let program =
              if Q.( > ) demand (Q.of_int bandwidth) then None
              else
                Result.to_option (Shard.design ~channels:1 ~bandwidth specs)
                |> Fun.flip Option.bind Shard.program
            in
            match program with
            | None ->
                unschedulable :=
                  Some
                    (Printf.sprintf
                       "unschedulable at %d-byte blocks (demand %s of %d \
                        slots/sec)"
                       block (Q.to_string demand) bandwidth);
                scan rest
            | Some program ->
                let files =
                  List.map
                    (fun spec ->
                      {
                        spec;
                        window = File_spec.window spec ~bandwidth;
                        slots_per_period =
                          Program.occurrences_per_period program
                            spec.File_spec.id;
                        delta =
                          (match Program.delta program spec.File_spec.id with
                          | Some d -> d
                          | None -> 0);
                      })
                    specs
                in
                Ok
                  {
                    block_size = block;
                    bandwidth;
                    program;
                    files;
                    utilization = Schedule.utilization (Program.schedule program);
                  }))
  in
  scan (candidates byte_rate)

let pp ppf t =
  Format.fprintf ppf
    "broadcast-disk plan: %d-byte blocks, %d blocks/sec, period %d slots, \
     data cycle %d, channel %s busy@."
    t.block_size t.bandwidth
    (Program.period t.program)
    (Program.data_cycle t.program)
    (Q.to_string t.utilization);
  List.iter
    (fun fp ->
      Format.fprintf ppf
        "  %-12s m=%-3d r=%d N=%-3d window=%-4d slots/period=%-3d Delta=%d@."
        fp.spec.File_spec.name fp.spec.File_spec.blocks
        fp.spec.File_spec.tolerance fp.spec.File_spec.capacity fp.window
        fp.slots_per_period fp.delta)
    t.files
