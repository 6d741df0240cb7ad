module Program = Pindisk.Program
module Intmath = Pindisk_util.Intmath

type read = { file : int; needed : int }

type outcome = { elapsed : int; epoch : int; restarts : int }

type item_state = {
  needed : int;
  mutable got : (int, unit) Hashtbl.t;
  mutable epoch : int; (* epoch the current collection belongs to; -1 = none *)
  mutable complete : bool;
}

let retrieve ~program ~reads ~update_period ~start =
  if reads = [] then invalid_arg "Snapshot.retrieve: empty read set";
  if update_period < 1 then invalid_arg "Snapshot.retrieve: update_period";
  if start < 0 then invalid_arg "Snapshot.retrieve: negative start";
  let files = List.map (fun r -> r.file) reads in
  if List.length (List.sort_uniq compare files) <> List.length files then
    invalid_arg "Snapshot.retrieve: duplicate files";
  List.iter
    (fun r ->
      (match Program.capacity program r.file with
      | exception Not_found -> invalid_arg "Snapshot.retrieve: file not in program"
      | cap ->
          if r.needed > cap then
            invalid_arg "Snapshot.retrieve: needed exceeds capacity");
      if r.needed < 1 then invalid_arg "Snapshot.retrieve: needed must be >= 1")
    reads;
  let max_slots = Program.data_cycles program 50 in
  let period = Program.period program in
  let epoch_at t = t / period * period / update_period in
  let states = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Hashtbl.replace states r.file
        { needed = r.needed; got = Hashtbl.create 8; epoch = -1; complete = false })
    reads;
  let restarts = ref 0 in
  let t = ref start in
  let result = ref None in
  while !result = None && !t - start < max_slots do
    (match Program.block_at program !t with
    | Some (f, idx) -> (
        match Hashtbl.find_opt states f with
        | None -> ()
        | Some st ->
            let e = epoch_at !t in
            (* A new epoch invalidates every item still collecting in an
               older one, and every already-completed item from an older
               one (its snapshot can no longer be completed by the rest). *)
            if e > st.epoch && (st.epoch >= 0 || st.complete) then begin
              if Hashtbl.length st.got > 0 || st.complete then incr restarts;
              st.got <- Hashtbl.create 8;
              st.complete <- false
            end;
            if not st.complete then begin
              st.epoch <- e;
              if not (Hashtbl.mem st.got idx) then begin
                Hashtbl.replace st.got idx ();
                if Hashtbl.length st.got >= st.needed then st.complete <- true
              end
            end;
            (* Transaction commits when all items are complete in one
               common epoch. *)
            if st.complete then begin
              let epochs =
                Hashtbl.fold
                  (fun _ s acc ->
                    if s.complete then s.epoch :: acc else (-2) :: acc)
                  states []
              in
              match epochs with
              | e0 :: rest when e0 >= 0 && List.for_all (( = ) e0) rest ->
                  result := Some { elapsed = !t - start + 1; epoch = e0; restarts = !restarts }
              | _ -> ()
            end)
    | None -> ());
    incr t
  done;
  !result

type summary = {
  trials : int;
  starved : int;
  mean_elapsed : float;
  max_elapsed : int;
  mean_restarts : float;
}

let sweep ~program ~reads ~update_period =
  let cycle =
    Intmath.lcm (Program.data_cycle program)
      (Intmath.lcm update_period (Program.period program))
  in
  let starved = ref 0 in
  let sum = ref 0 and worst = ref 0 and rsum = ref 0 in
  for start = 0 to cycle - 1 do
    match retrieve ~program ~reads ~update_period ~start with
    | None -> incr starved
    | Some o ->
        sum := !sum + o.elapsed;
        worst := max !worst o.elapsed;
        rsum := !rsum + o.restarts
  done;
  let completed = cycle - !starved in
  {
    trials = cycle;
    starved = !starved;
    mean_elapsed =
      (if completed = 0 then Float.nan
       else float_of_int !sum /. float_of_int completed);
    max_elapsed = !worst;
    mean_restarts =
      (if completed = 0 then Float.nan
       else float_of_int !rsum /. float_of_int completed);
  }
