module Program = Pindisk.Program
module Schedule = Pindisk_pinwheel.Schedule
module Intmath = Pindisk_util.Intmath

let with_index prog ~copies ~index_slots =
  if copies < 1 then invalid_arg "Indexing.with_index: copies must be >= 1";
  if index_slots < 1 then invalid_arg "Indexing.with_index: index_slots must be >= 1";
  let p = Program.period prog in
  if p mod copies <> 0 then
    invalid_arg "Indexing.with_index: copies must divide the period";
  let index_file = 1 + List.fold_left max (-1) (Program.files prog) in
  let segment = p / copies in
  let layout = ref [] in
  (* Build back-to-front: for each segment, an index header then the
     segment's data slots. *)
  for seg = copies - 1 downto 0 do
    let data = ref [] in
    for t = ((seg + 1) * segment) - 1 downto seg * segment do
      data :=
        (match Program.block_at prog t with
        | Some (f, k) -> (f, k)
        | None -> (Schedule.idle, 0))
        :: !data
    done;
    let header = List.init index_slots (fun k -> (index_file, k)) in
    layout := header @ !data @ !layout
  done;
  let capacities =
    (index_file, index_slots)
    :: List.map (fun f -> (f, Program.capacity prog f)) (Program.files prog)
  in
  (Program.of_layout !layout ~capacities, index_file)

type metrics = { access_time : float; tuning_time : float }

(* Slots (inclusive) from [t] until [needed] distinct blocks of [file]
   have been received, plus the number of file-transmission slots touched
   on the way (the minimal awake slots to grab them, excluding waiting). *)
let time_to_collect prog ~file ~needed t =
  let cycle = Program.data_cycle prog in
  let collected = Hashtbl.create 8 in
  let d = ref 0 and touched = ref 0 in
  let finish = ref None in
  while !finish = None do
    if !d > (needed + 1) * (cycle + 1) then
      invalid_arg "Indexing: file too rare to collect";
    (match Program.block_at prog (t + !d) with
    | Some (f, idx) when f = file ->
        if not (Hashtbl.mem collected idx) then begin
          Hashtbl.replace collected idx ();
          incr touched;
          if Hashtbl.length collected >= needed then finish := Some (!d + 1)
        end
    | Some _ | None -> ());
    incr d
  done;
  (Option.get !finish, !touched)

let self_identifying_metrics prog ~file ~needed =
  if needed < 1 then invalid_arg "Indexing: needed must be >= 1";
  let cycle = Program.data_cycle prog in
  let total = ref 0 in
  for t = 0 to cycle - 1 do
    let access, _ = time_to_collect prog ~file ~needed t in
    total := !total + access
  done;
  let mean = float_of_int !total /. float_of_int cycle in
  (* Listening continuously: every waiting slot costs energy. *)
  { access_time = mean; tuning_time = mean }

let indexed_retrieve_lossy prog ~index_file ~index_slots ~file ~needed ~start
    ~fault =
  if needed < 1 then invalid_arg "Indexing: needed must be >= 1";
  if start < 0 then invalid_arg "Indexing: negative start";
  let limit = start + Program.data_cycles prog 100 in
  Fault.reset_to fault start;
  (* The fault process must advance once per slot regardless of whether
     the radio is on; advance it lazily up to an absolute slot. *)
  let fault_at = ref start and last_verdict = ref false in
  let lost_at t =
    while !fault_at <= t do
      last_verdict := Fault.advance fault;
      incr fault_at
    done;
    !last_verdict
  in
  let collected = Hashtbl.create 8 in
  let awake = ref 0 in
  let exception Done of int in
  let exception Out_of_budget in
  try
    let t = ref start in
    (* Probe one slot to learn the offset of the next index. *)
    incr awake;
    ignore (lost_at !t);
    incr t;
    while true do
      (* Wait (dozing) for the start of the next index segment. *)
      let idx_start = ref !t in
      (try
         while true do
           if !idx_start > limit then raise Out_of_budget;
           (match Program.block_at prog !idx_start with
           | Some (f, 0) when f = index_file -> raise Exit
           | Some _ | None -> ());
           incr idx_start
         done
       with Exit -> ());
      (* Read the index copy: every slot awake; a loss anywhere in it
         forces a retry at the next copy. *)
      let index_ok = ref true in
      for k = 0 to index_slots - 1 do
        incr awake;
        if lost_at (!idx_start + k) then index_ok := false
      done;
      t := !idx_start + index_slots;
      if !index_ok then
        (* Armed: the program is cyclic, so one good index describes it
           forever; wake exactly at the file's transmissions until enough
           distinct blocks get through. A ruined data reception just costs
           the next wake-up. *)
        while true do
          if !t > limit then raise Out_of_budget;
          (match Program.block_at prog !t with
          | Some (f, idx) when f = file ->
              incr awake;
              if (not (lost_at !t)) && not (Hashtbl.mem collected idx) then begin
                Hashtbl.replace collected idx ();
                if Hashtbl.length collected >= needed then raise (Done !t)
              end
          | Some _ | None -> ());
          incr t
        done
    done;
    None
  with
  | Done finish ->
      Some
        {
          access_time = float_of_int (finish - start + 1);
          tuning_time = float_of_int !awake;
        }
  | Out_of_budget -> None

let indexed_metrics prog ~index_file ~index_slots ~file ~needed =
  if needed < 1 then invalid_arg "Indexing: needed must be >= 1";
  let cycle = Program.data_cycle prog in
  (* Next start of an index segment at or after t: the first slot carrying
     index block 0. *)
  let next_index t =
    let rec go d =
      if d > cycle then invalid_arg "Indexing: no index found"
      else
        match Program.block_at prog (t + d) with
        | Some (f, 0) when f = index_file -> t + d
        | Some _ | None -> go (d + 1)
    in
    go 0
  in
  let total_access = ref 0 and total_tuning = ref 0 in
  for t = 0 to cycle - 1 do
    (* Probe one slot at t; it reveals the offset of the next index. *)
    let idx_start = next_index (t + 1) in
    let after_index = idx_start + index_slots in
    (* Armed with the index, wake exactly for the file's transmissions. *)
    let extra, touched = time_to_collect prog ~file ~needed after_index in
    let access = after_index + extra - t in
    let tuning = 1 + index_slots + touched in
    total_access := !total_access + access;
    total_tuning := !total_tuning + tuning
  done;
  {
    access_time = float_of_int !total_access /. float_of_int cycle;
    tuning_time = float_of_int !total_tuning /. float_of_int cycle;
  }
