module Task = Pindisk_pinwheel.Task
module Plan = Pindisk_pinwheel.Plan
module Scheduler = Pindisk_pinwheel.Scheduler
module Intmath = Pindisk_util.Intmath

type file = { id : int; bytes : int; latency : int; tolerance : int }

let file ?(tolerance = 0) ~id ~bytes ~latency () =
  if id < 0 then invalid_arg "Block_size.file: negative id";
  if bytes < 1 then invalid_arg "Block_size.file: bytes must be >= 1";
  if latency < 1 then invalid_arg "Block_size.file: latency must be >= 1";
  if tolerance < 0 then invalid_arg "Block_size.file: negative tolerance";
  { id; bytes; latency; tolerance }

let per_file_multipliers ~byte_rate ~base files =
  if files = [] then invalid_arg "Block_size.per_file_multipliers: no files";
  if base < 1 then invalid_arg "Block_size.per_file_multipliers: base must be >= 1";
  let slots_per_second = byte_rate / base in
  if slots_per_second < 1 then None
  else begin
    (* With multiplier k, a file needs ceil(bytes / (k*base)) blocks of k
       base slots each, plus tolerance blocks, all within the window. *)
    let task_for f k =
      let m = Intmath.ceil_div f.bytes (k * base) in
      let a = (m + f.tolerance) * k in
      let window = slots_per_second * f.latency in
      if m + f.tolerance > 255 (* IDA limit *) || a > window then None
      else Some (Task.make ~id:f.id ~a ~b:window)
    in
    let system ks =
      let rec build acc = function
        | [] -> Some (List.rev acc)
        | f :: rest -> (
            match task_for f (List.assoc f.id ks) with
            | Some t -> build (t :: acc) rest
            | None -> None)
      in
      build [] files
    in
    let plan_of ks = Option.bind (system ks) Scheduler.plan in
    let initial = List.map (fun f -> (f.id, 1)) files in
    match plan_of initial with
    | None -> None
    | Some plan ->
        (* Greedily double the multiplier of the file with the largest
           current block count while the system stays schedulable. *)
        let rec improve ks plan frozen =
          let candidates =
            files
            |> List.filter (fun f -> not (List.mem f.id frozen))
            |> List.map (fun f ->
                   (f, Intmath.ceil_div f.bytes (List.assoc f.id ks * base)))
            |> List.filter (fun (_, m) -> m > 1)
          in
          match candidates with
          | [] -> (ks, plan)
          | _ ->
              let f, _ =
                List.fold_left
                  (fun (bf, bm) (f, m) -> if m > bm then (f, m) else (bf, bm))
                  (List.hd candidates) (List.tl candidates)
              in
              let ks' =
                List.map
                  (fun (id, k) -> if id = f.id then (id, 2 * k) else (id, k))
                  ks
              in
              (match plan_of ks' with
              | Some plan' -> improve ks' plan' frozen
              | None -> improve ks plan (f.id :: frozen))
        in
        let ks, plan = improve initial plan [] in
        Some (ks, Plan.to_schedule plan)
  end
