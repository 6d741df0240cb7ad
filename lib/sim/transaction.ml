module Program = Pindisk.Program

type spec = { file : int; needed : int; tolerate : int }

type outcome = {
  completed_at : int option;
  elapsed : int option;
  losses : int;
}

let validate program reads =
  if reads = [] then invalid_arg "Transaction: empty read set";
  let files = List.map (fun r -> r.file) reads in
  if List.length (List.sort_uniq compare files) <> List.length files then
    invalid_arg "Transaction: duplicate files";
  List.iter
    (fun r ->
      if r.needed < 1 then invalid_arg "Transaction: needed must be >= 1";
      if r.tolerate < 0 then invalid_arg "Transaction: negative tolerance";
      match Program.capacity program r.file with
      | exception Not_found -> invalid_arg "Transaction: file not in program"
      | cap ->
          if r.needed > cap then
            invalid_arg "Transaction: needed exceeds the file's capacity")
    reads

let retrieve ~program ~reads ~start ~fault =
  validate program reads;
  if start < 0 then invalid_arg "Transaction: negative start";
  let max_slots = Program.data_cycles program 100 in
  let wanted = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace wanted r.file (r.needed, Hashtbl.create 8)) reads;
  let outstanding = ref (List.length reads) in
  let losses = ref 0 in
  Fault.reset_to fault start;
  let t = ref start in
  let finish = ref None in
  while !finish = None && !t - start < max_slots do
    let lost = Fault.advance fault in
    (match Program.block_at program !t with
    | Some (f, idx) -> (
        match Hashtbl.find_opt wanted f with
        | Some (needed, got) ->
            if lost then incr losses
            else if Hashtbl.length got < needed && not (Hashtbl.mem got idx)
            then begin
              Hashtbl.replace got idx ();
              if Hashtbl.length got = needed then begin
                decr outstanding;
                if !outstanding = 0 then finish := Some !t
              end
            end
        | None -> ())
    | None -> ());
    incr t
  done;
  match !finish with
  | Some slot ->
      { completed_at = Some slot; elapsed = Some (slot - start + 1); losses = !losses }
  | None -> { completed_at = None; elapsed = None; losses = !losses }

let worst_case program ~reads =
  validate program reads;
  let cycle = Program.data_cycle program in
  (* For each tune-in slot, the transaction finishes when its slowest read
     does; each read is attacked independently by its own adversary. The
     worst tune-in slots are those right after any occurrence of any read
     file (plus slot 0), as waiting can only shrink elsewhere. *)
  let starts = ref [ 0 ] in
  for t = 0 to cycle - 1 do
    match Program.block_at program t with
    | Some (f, _) when List.exists (fun r -> r.file = f) reads ->
        starts := (t + 1) mod cycle :: !starts
    | Some _ | None -> ()
  done;
  let starts = List.sort_uniq compare !starts in
  List.fold_left
    (fun worst start ->
      let elapsed =
        List.fold_left
          (fun acc r ->
            max acc
              (Adversary.retrieval_from program ~file:r.file ~needed:r.needed
                 ~errors:r.tolerate ~start))
          0 reads
      in
      max worst elapsed)
    0 starts

let worst_case_shared program ~reads ~errors =
  if errors < 0 then invalid_arg "Transaction: negative errors";
  worst_case program
    ~reads:(List.map (fun r -> { r with tolerate = errors }) reads)
