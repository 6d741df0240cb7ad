module Schedule = Pindisk_pinwheel.Schedule
module Plan = Pindisk_pinwheel.Plan
module Intmath = Pindisk_util.Intmath
module Inttbl = Pindisk_util.Inttbl

(* Per file: its on-air block count, the block index its first
   occurrence carries, and its ascending slot offsets within a period. *)
type entry = { capacity : int; phase : int; offsets : int array }

let no_entry = { capacity = 0; phase = 0; offsets = [||] }

type t = {
  schedule : Schedule.t;
  index : int Inttbl.t;  (* file -> its entry in [entries] *)
  entries : entry array;  (* by rank in the capacity list *)
  (* Per slot of one period: how many earlier slots carry its file. *)
  ordinal : int array;
}

(* The one builder. One pass over the plan's occurrences claims each
   slot (an explicit schedule's slots are claimed already), counts it
   under its file's rank — one key lookup per run of a key — and parks
   the rank in the slot's ordinal; a walk up the period then files each
   busy slot in its file's offsets and overwrites the rank with the
   slot's ordinal. O(period + files) words and no scratch array. Errors
   come in the order of materialising first: a collision, then a bad
   capacity, then the lowest slot whose file has none. *)
let build ?schedule ~capacities ~phase plan =
  let period = Plan.period plan in
  let files = List.length capacities in
  (* A file listed twice keeps its last capacity. *)
  let index = Inttbl.create files in
  List.iteri (fun r (f, _) -> Inttbl.replace index f r) capacities;
  let counts = Array.make files 0 in
  let slots, claim =
    match schedule with
    | Some s -> (s.Schedule.slots, fun _ _ -> ())
    | None ->
        let slots = Array.make period Schedule.idle in
        ( slots,
          fun key t ->
            if slots.(t) <> Schedule.idle then
              invalid_arg "Plan.to_schedule: colliding progressions";
            slots.(t) <- key )
  in
  let ordinal = Array.make period 0 in
  let last = ref Schedule.idle and rank = ref (-1) in
  Plan.iter_occurrences plan (fun key t ->
      claim key t;
      if key <> !last then begin
        last := key;
        rank := match Inttbl.find index key with r -> r | exception Not_found -> -1
      end;
      if !rank >= 0 then counts.(!rank) <- counts.(!rank) + 1;
      ordinal.(t) <- !rank);
  List.iter
    (fun (f, n) ->
      if n < 1 then invalid_arg "Program.make: capacity must be >= 1";
      if f < 0 then invalid_arg "Program.make: negative file id")
    capacities;
  (* Filled in place from a static placeholder: an array of over 256
     fresh records, built by [Array.map], would force a minor
     collection. *)
  let entries = Array.make files no_entry in
  List.iteri
    (fun r (f, n) ->
      entries.(r) <- { capacity = n; phase = phase f; offsets = Array.make counts.(r) 0 })
    capacities;
  Array.fill counts 0 files 0;
  for t = 0 to period - 1 do
    let f = slots.(t) in
    if f <> Schedule.idle then begin
      let r = ordinal.(t) in
      if r < 0 then
        invalid_arg (Printf.sprintf "Program.make: file %d has no capacity" f);
      let k = counts.(r) in
      entries.(r).offsets.(k) <- t;
      counts.(r) <- k + 1;
      ordinal.(t) <- k
    end
  done;
  let schedule = match schedule with Some s -> s | None -> Schedule.adopt slots in
  { schedule; index; entries; ordinal }

let no_phase _ = 0
let of_plan plan ~capacities = build ~capacities ~phase:no_phase plan

let make ~schedule ~capacities =
  build ~schedule ~capacities ~phase:no_phase (Plan.explicit schedule)

let schedule t = t.schedule
let period t = Schedule.period t.schedule
let files t = Schedule.task_ids t.schedule

let entry t f = t.entries.(Inttbl.find t.index f)
let capacity t f = (entry t f).capacity

let offsets t f =
  match Inttbl.find t.index f with r -> t.entries.(r).offsets | exception Not_found -> [||]

let occurrences_per_period t f = Array.length (offsets t f)

let block_at t slot =
  if slot < 0 then invalid_arg "Program.block_at: negative slot";
  let slots = t.schedule.Schedule.slots in
  let p = Array.length slots in
  let q = slot / p in
  let s = slot - (q * p) in
  let f = slots.(s) in
  if f = Schedule.idle then None
  else begin
    let e = entry t f in
    Some (f, (e.phase + (q * Array.length e.offsets) + t.ordinal.(s)) mod e.capacity)
  end

let data_cycle t =
  Intmath.mul_exn
    (Array.fold_left
       (fun acc e ->
         let occ = Array.length e.offsets in
         if occ = 0 then acc
         else Intmath.lcm acc (e.capacity / Intmath.gcd e.capacity occ))
       1 t.entries)
    (period t)

let data_cycles t k =
  match Intmath.mul_exn k (data_cycle t) with
  | n -> n
  | exception Intmath.Overflow ->
      invalid_arg
        (Printf.sprintf
           "Program.data_cycles: %d data cycles overflow an int; pass max_slots" k)

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
  build ~schedule:sched ~capacities (Plan.explicit sched) ~phase:(fun f ->
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
