module Fault = Pindisk_sim.Fault
module Workload = Pindisk_sim.Workload
module Program = Pindisk.Program

type phase = { length : int; fault : Fault.t }

let losses phases =
  let total = List.fold_left (fun acc p -> acc + p.length) 0 phases in
  let verdicts = Array.make total false in
  let start = ref 0 in
  List.iter
    (fun p ->
      if p.length < 0 then invalid_arg "Driver.losses: negative phase length";
      Fault.reset_to p.fault !start;
      for s = !start to !start + p.length - 1 do
        verdicts.(s) <- Fault.advance p.fault
      done;
      start := !start + p.length)
    phases;
  verdicts

type bucket = { t0 : int; t1 : int; issued : int; missed : int }

type report = {
  requests : int;
  completed : int;
  missed : int;
  timeline : bucket list;
  swaps : Swap.entry list;
}

let miss_ratio r =
  if r.requests = 0 then 0.0
  else float_of_int r.missed /. float_of_int r.requests

let window_miss_ratio r ~t0 ~t1 =
  let issued, missed =
    List.fold_left
      (fun (i, m) b ->
        if b.t0 >= t0 && b.t1 <= t1 then (i + b.issued, m + b.missed)
        else (i, m))
      (0, 0) r.timeline
  in
  if issued = 0 then 0.0 else float_of_int missed /. float_of_int issued

(* One in-flight retrieval: distinct block indices collected so far. *)
type flight = {
  req : Workload.request;
  blocks : (int, unit) Hashtbl.t;
}

let run ?(bucket = 500) ?controller ~program ~losses trace =
  if bucket < 1 then invalid_arg "Driver.run: bucket must be >= 1";
  let horizon = Array.length losses in
  let n_buckets = ((horizon + bucket - 1) / bucket) + 1 in
  let b_issued = Array.make n_buckets 0 in
  let b_missed = Array.make n_buckets 0 in
  let completed = ref 0 and missed = ref 0 in
  let finish (fl : flight) ~ok =
    let b = min (n_buckets - 1) (fl.req.Workload.issued / bucket) in
    if ok then incr completed
    else begin
      incr missed;
      b_missed.(b) <- b_missed.(b) + 1
    end
  in
  let inflight = ref [] in
  let pending = ref trace in
  for t = 0 to horizon - 1 do
    (match controller with
    | Some c -> ignore (Controller.tick c t)
    | None -> ());
    (* Requests tuning in this slot. *)
    let rec admit () =
      match !pending with
      | r :: rest when r.Workload.issued <= t ->
          pending := rest;
          let b = min (n_buckets - 1) (r.Workload.issued / bucket) in
          b_issued.(b) <- b_issued.(b) + 1;
          inflight := { req = r; blocks = Hashtbl.create 8 } :: !inflight;
          admit ()
      | _ -> ()
    in
    admit ();
    (* Expire retrievals whose deadline has passed: a block in this slot
       would arrive at elapsed [t - issued + 1] > deadline. *)
    inflight :=
      List.filter
        (fun fl ->
          if t - fl.req.Workload.issued >= fl.req.Workload.deadline then begin
            finish fl ~ok:false;
            false
          end
          else true)
        !inflight;
    let block =
      match controller with
      | Some c -> Controller.block_at c t
      | None -> Program.block_at program t
    in
    let lost = losses.(t) in
    (match block with
    | None -> ()
    | Some (file, idx) ->
        (* The reception outcome is the server's feedback. *)
        (match controller with
        | Some c -> Controller.report c ~lost
        | None -> ());
        if not lost then
          inflight :=
            List.filter
              (fun fl ->
                if fl.req.Workload.file <> file then true
                else begin
                  if not (Hashtbl.mem fl.blocks idx) then
                    Hashtbl.replace fl.blocks idx ();
                  if Hashtbl.length fl.blocks >= fl.req.Workload.needed then begin
                    finish fl ~ok:true;
                    false
                  end
                  else true
                end)
              !inflight);
    match controller with
    | Some c -> Controller.decide c ~slot:t
    | None -> ()
  done;
  (* Whatever is still in flight at the horizon never completed. *)
  List.iter (fun fl -> finish fl ~ok:false) !inflight;
  List.iter
    (fun (r : Workload.request) ->
      let b = min (n_buckets - 1) (r.Workload.issued / bucket) in
      b_issued.(b) <- b_issued.(b) + 1;
      b_missed.(b) <- b_missed.(b) + 1;
      incr missed)
    !pending;
  let timeline =
    List.init n_buckets (fun i ->
        { t0 = i * bucket; t1 = (i + 1) * bucket; issued = b_issued.(i);
          missed = b_missed.(i) })
    |> List.filter (fun b -> b.issued > 0)
  in
  {
    requests = List.length trace;
    completed = !completed;
    missed = !missed;
    timeline;
    swaps = (match controller with Some c -> Controller.swap_log c | None -> []);
  }
