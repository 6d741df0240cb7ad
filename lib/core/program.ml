module Schedule = Pindisk_pinwheel.Schedule
module Scheduler = Pindisk_pinwheel.Scheduler
module Intmath = Pindisk_util.Intmath

type t = {
  schedule : Schedule.t;
  capacities : (int, int) Hashtbl.t;
  (* Per file: occurrence counts in slots [0, k) of one period, k <= P. *)
  prefix : (int, int array) Hashtbl.t;
  (* Per file: block index carried by its first occurrence. *)
  phase : (int, int) Hashtbl.t;
}

let build ~schedule ~capacities ~phases =
  let p = Schedule.period schedule in
  let ids = Schedule.task_ids schedule in
  let cap_tbl = Hashtbl.create 16 in
  List.iter
    (fun (f, n) ->
      if n < 1 then invalid_arg "Program.make: capacity must be >= 1";
      if f < 0 then invalid_arg "Program.make: negative file id";
      Hashtbl.replace cap_tbl f n)
    capacities;
  List.iter
    (fun f ->
      if not (Hashtbl.mem cap_tbl f) then
        invalid_arg (Printf.sprintf "Program.make: file %d has no capacity" f))
    ids;
  let prefix = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let pre = Array.make (p + 1) 0 in
      for s = 0 to p - 1 do
        pre.(s + 1) <- (pre.(s) + if Schedule.task_at schedule s = f then 1 else 0)
      done;
      Hashtbl.replace prefix f pre)
    ids;
  let phase = Hashtbl.create 16 in
  List.iter (fun (f, ph) -> Hashtbl.replace phase f ph) phases;
  { schedule; capacities = cap_tbl; prefix; phase }

let make ~schedule ~capacities = build ~schedule ~capacities ~phases:[]

let schedule t = t.schedule
let period t = Schedule.period t.schedule
let files t = Schedule.task_ids t.schedule

let capacity t f =
  match Hashtbl.find_opt t.capacities f with
  | Some n -> n
  | None -> raise Not_found

let occurrences_per_period t f =
  match Hashtbl.find_opt t.prefix f with
  | Some pre -> pre.(period t)
  | None -> 0

let block_at t slot =
  if slot < 0 then invalid_arg "Program.block_at: negative slot";
  let f = Schedule.task_at t.schedule slot in
  if f = Schedule.idle then None
  else begin
    let p = period t in
    let pre = Hashtbl.find t.prefix f in
    let count = ((slot / p) * pre.(p)) + pre.(slot mod p) in
    let n = Hashtbl.find t.capacities f in
    let ph = match Hashtbl.find_opt t.phase f with Some v -> v | None -> 0 in
    Some (f, (ph + count) mod n)
  end

let data_cycle t =
  let p = period t in
  List.fold_left
    (fun acc f ->
      let occ = occurrences_per_period t f in
      if occ = 0 then acc
      else
        let n = capacity t f in
        Intmath.lcm acc (n / Intmath.gcd n occ))
    1 (files t)
  * p

let delta t f = Schedule.max_gap t.schedule f

let pp ppf t =
  let p = period t in
  for s = 0 to p - 1 do
    if s > 0 then Format.fprintf ppf " ";
    match block_at t s with
    | None -> Format.fprintf ppf "."
    | Some (f, k) -> Format.fprintf ppf "%d:%d" f k
  done

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let of_layout slots ~capacities =
  if slots = [] then invalid_arg "Program.of_layout: empty layout";
  let sched =
    Schedule.make
      (Array.of_list
         (List.map (fun (f, _) -> if f < 0 then Schedule.idle else f) slots))
  in
  (* Phase of each file = block index of its first occurrence; then verify
     the whole layout follows the cycling discipline. *)
  let phases = Hashtbl.create 8 in
  let counts = Hashtbl.create 8 in
  let cap f =
    match List.assoc_opt f capacities with
    | Some n when n >= 1 -> n
    | Some _ -> invalid_arg "Program.of_layout: capacity must be >= 1"
    | None -> invalid_arg (Printf.sprintf "Program.of_layout: file %d has no capacity" f)
  in
  List.iter
    (fun (f, blk) ->
      if f >= 0 then begin
        let k = match Hashtbl.find_opt counts f with Some k -> k | None -> 0 in
        let ph =
          match Hashtbl.find_opt phases f with
          | Some ph -> ph
          | None ->
              Hashtbl.replace phases f blk;
              blk
        in
        if (ph + k) mod cap f <> blk then
          invalid_arg
            (Printf.sprintf
               "Program.of_layout: file %d occurrence %d carries block %d, \
                expected %d (capacity %d)"
               f k blk ((ph + k) mod cap f) (cap f));
        Hashtbl.replace counts f (k + 1)
      end)
    slots;
  build ~schedule:sched ~capacities
    ~phases:(Hashtbl.fold (fun f ph acc -> (f, ph) :: acc) phases [])

(* Earliest-virtual-deadline interleaving: file i's k-th slot has virtual
   deadline (k+1)/m_i; serve the smallest deadline first. Spreads each
   file's slots evenly through the period, which is what keeps Lemma 2's
   Delta small. *)
let evd_layout files =
  List.iter
    (fun (f, m) ->
      if f < 0 then invalid_arg "Program.flat: negative file id";
      if m < 1 then invalid_arg "Program.flat: file size must be >= 1")
    files;
  let ids = List.map fst files in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Program.flat: duplicate file ids";
  let total = Intmath.sum (List.map snd files) in
  let emitted = Hashtbl.create 8 in
  List.iter (fun (f, _) -> Hashtbl.replace emitted f 0) files;
  Array.init total (fun _ ->
      let best = ref None in
      List.iter
        (fun (f, m) ->
          let k = Hashtbl.find emitted f in
          if k < m then
            (* Compare (k+1)/m as fractions without floats. *)
            let better =
              match !best with
              | None -> true
              | Some (_, bk, bm) -> (k + 1) * bm < (bk + 1) * m
            in
            if better then best := Some (f, k, m))
        files;
      match !best with
      | Some (f, k, _) ->
          Hashtbl.replace emitted f (k + 1);
          (f, k)
      | None -> assert false (* total slots = total demand *))

let flat files =
  let layout = evd_layout files in
  of_layout (Array.to_list layout) ~capacities:files

let aida_flat files =
  List.iter
    (fun (_, m, n) ->
      if n < m then invalid_arg "Program.aida_flat: capacity below size")
    files;
  let layout = evd_layout (List.map (fun (f, m, _) -> (f, m)) files) in
  of_layout (Array.to_list layout)
    ~capacities:(List.map (fun (f, _, n) -> (f, n)) files)

let pinwheel ~bandwidth files =
  match
    List.map (fun f -> File_spec.to_task f ~bandwidth) files
  with
  | exception Invalid_argument _ -> None
  | sys -> (
      match Scheduler.schedule sys with
      | None -> None
      | Some sched ->
          Some
            (make ~schedule:sched
               ~capacities:
                 (List.map (fun f -> (f.File_spec.id, f.File_spec.capacity)) files)))

let auto files =
  match Bandwidth.minimum files with
  | None -> None
  | Some (b, sched) ->
      Some
        ( b,
          make ~schedule:sched
            ~capacities:
              (List.map (fun f -> (f.File_spec.id, f.File_spec.capacity)) files) )
