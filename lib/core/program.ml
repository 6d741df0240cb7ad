module Schedule = Pindisk_pinwheel.Schedule
module Scheduler = Pindisk_pinwheel.Scheduler
module Intmath = Pindisk_util.Intmath

(* Per file: its on-air block count, the block index its first
   occurrence carries, and its ascending slot offsets within a period. *)
type entry = { capacity : int; phase : int; offsets : int array }

type t = {
  schedule : Schedule.t;
  entries : (int, entry) Hashtbl.t;
  (* Per slot of one period: how many earlier slots carry its file. *)
  ordinal : int array;
}

(* One pass numbers every busy slot within its file; a second files the
   slot under that number in its file's offsets. O(period) words. *)
let build ~schedule ~capacities ~phase =
  let slots = schedule.Schedule.slots in
  let counts = Hashtbl.create 16 in
  let ordinal =
    Array.map
      (fun f ->
        if f = Schedule.idle then 0
        else begin
          let k = Option.value ~default:0 (Hashtbl.find_opt counts f) in
          Hashtbl.replace counts f (k + 1);
          k
        end)
      slots
  in
  let entries = Hashtbl.create 16 in
  List.iter
    (fun (f, n) ->
      if n < 1 then invalid_arg "Program.make: capacity must be >= 1";
      if f < 0 then invalid_arg "Program.make: negative file id";
      let occ = Option.value ~default:0 (Hashtbl.find_opt counts f) in
      Hashtbl.replace entries f
        { capacity = n; phase = phase f; offsets = Array.make occ 0 })
    capacities;
  Array.iteri
    (fun s f ->
      if f <> Schedule.idle then
        match Hashtbl.find_opt entries f with
        | Some e -> e.offsets.(ordinal.(s)) <- s
        | None ->
            invalid_arg
              (Printf.sprintf "Program.make: file %d has no capacity" f))
    slots;
  { schedule; entries; ordinal }

let make ~schedule ~capacities = build ~schedule ~capacities ~phase:(fun _ -> 0)

let schedule t = t.schedule
let period t = Schedule.period t.schedule
let files t = Schedule.task_ids t.schedule

let capacity t f =
  match Hashtbl.find_opt t.entries f with
  | Some e -> e.capacity
  | None -> raise Not_found

let offsets t f =
  match Hashtbl.find_opt t.entries f with
  | Some e -> e.offsets
  | None -> [||]

let occurrences_per_period t f = Array.length (offsets t f)

let block_at t slot =
  if slot < 0 then invalid_arg "Program.block_at: negative slot";
  let f = Schedule.task_at t.schedule slot in
  if f = Schedule.idle then None
  else begin
    let p = period t in
    let e = Hashtbl.find t.entries f in
    let count = ((slot / p) * Array.length e.offsets) + t.ordinal.(slot mod p) in
    Some (f, (e.phase + count) mod e.capacity)
  end

let data_cycle t =
  Hashtbl.fold
    (fun _ e acc ->
      let occ = Array.length e.offsets in
      if occ = 0 then acc
      else Intmath.lcm acc (e.capacity / Intmath.gcd e.capacity occ))
    t.entries 1
  * period t

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
  build ~schedule:sched ~capacities ~phase:(fun f ->
      Option.value ~default:0 (Hashtbl.find_opt phases f))

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
