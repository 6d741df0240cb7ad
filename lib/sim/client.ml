module Program = Pindisk.Program
module Obs = Pindisk_obs

let obs_requests = Obs.Registry.counter "sim.client.requests"
let obs_completed = Obs.Registry.counter "sim.client.completed"
let obs_receptions = Obs.Registry.counter "sim.client.receptions"
let obs_losses = Obs.Registry.counter "sim.client.losses"
let obs_wait = Obs.Registry.histogram "sim.client.wait"

type outcome = {
  completed_at : int option;
  elapsed : int option;
  receptions : int;
  losses : int;
}

let pp_outcome ppf o =
  match o.completed_at with
  | Some t ->
      Format.fprintf ppf "completed at slot %d (%d slots, %d received, %d lost)"
        t
        (match o.elapsed with Some e -> e | None -> 0)
        o.receptions o.losses
  | None ->
      Format.fprintf ppf "incomplete (%d received, %d lost)" o.receptions o.losses

type error =
  | Unknown_file
  | Never_broadcast
  | Needed_exceeds_capacity of int
  | Bad_request of string

let error_message = function
  | Unknown_file -> "file not in program"
  | Never_broadcast -> "file never broadcast"
  | Needed_exceeds_capacity _ -> "needed exceeds the file's capacity"
  | Bad_request m -> m

let pp_error ppf e = Format.pp_print_string ppf (error_message e)

(* The retrieval loop proper; inputs are validated by [retrieve]
   below. *)
let retrieve_loop ?max_slots ~program ~file ~needed ~start ~fault () =
  let max_slots =
    match max_slots with
    | Some m -> m
    | None -> Program.data_cycles program 100
  in
  Fault.reset_to fault start;
  let obs = Obs.Control.enabled () in
  if obs then Obs.Registry.incr obs_requests;
  (* Fault bursts: runs of >= 2 consecutive lost busy slots, traced as one
     span anchored at the run's first slot. Flushed on the next delivered
     busy slot and once more at the end of the retrieval window. *)
  let burst_start = ref 0 and burst_len = ref 0 in
  let flush_burst () =
    if obs && !burst_len >= 2 then
      Obs.Trace.record
        (Obs.Trace.Fault_burst { slot = !burst_start; length = !burst_len });
    burst_len := 0
  in
  let collected = Hashtbl.create 16 in
  let receptions = ref 0 and losses = ref 0 in
  let result = ref None in
  let t = ref start in
  while !result = None && !t - start < max_slots do
    let lost = Fault.advance fault in
    (match Program.block_at program !t with
    | Some (f, idx) ->
        if lost then begin
          if !burst_len = 0 then burst_start := !t;
          incr burst_len
        end
        else flush_burst ();
        if f = file then
          if lost then incr losses
          else begin
            if not (Hashtbl.mem collected idx) then Hashtbl.replace collected idx ();
            incr receptions;
            if Hashtbl.length collected >= needed then result := Some !t
          end
    | None -> ());
    incr t
  done;
  flush_burst ();
  if obs then begin
    Obs.Registry.add obs_receptions !receptions;
    Obs.Registry.add obs_losses !losses
  end;
  match !result with
  | Some slot ->
      if obs then begin
        Obs.Registry.incr obs_completed;
        Obs.Histogram.observe obs_wait (slot - start + 1)
      end;
      {
        completed_at = Some slot;
        elapsed = Some (slot - start + 1);
        receptions = !receptions;
        losses = !losses;
      }
  | None ->
      { completed_at = None; elapsed = None; receptions = !receptions; losses = !losses }

(* With adaptive degradation a file can be shed from the program while
   clients still want it, so "not in program" is a runtime condition,
   not only a caller bug — hence the typed result (lint rule L2). *)
let retrieve ?max_slots ~program ~file ~needed ~start ~fault () =
  if start < 0 then Error (Bad_request "negative start")
  else if needed < 1 then Error (Bad_request "needed must be >= 1")
  else
    match Program.capacity program file with
    | exception Not_found -> Error Unknown_file
    | cap when needed > cap -> Error (Needed_exceeds_capacity cap)
    | _ when Program.occurrences_per_period program file = 0 ->
        Error Never_broadcast
    | _ ->
        Ok (retrieve_loop ?max_slots ~program ~file ~needed ~start ~fault ())

let deadline_met o ~deadline =
  match o.elapsed with Some e -> e <= deadline | None -> false
