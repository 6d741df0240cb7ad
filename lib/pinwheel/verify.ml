module Inttbl = Pindisk_util.Inttbl

type violation = { task : int; a : int; b : int; window_start : int; found : int }

(* Occurrences of [task] in the window of [window] slots starting at each
   slot of one period, via a prefix-sum over two concatenated periods plus
   arithmetic for windows longer than the period. The shared scaffolding of
   every window check below, and of the design auditor in pindisk.check. *)
let window_counts sched ~task ~window =
  if window < 1 then invalid_arg "Verify.window_counts: window must be >= 1";
  let p = Schedule.period sched in
  let occ_per_period = Schedule.count sched task in
  (* prefix.(t) = occurrences in slots [0, t) of the doubled period. *)
  let prefix = Array.make ((2 * p) + 1) 0 in
  for t = 0 to (2 * p) - 1 do
    prefix.(t + 1) <-
      (prefix.(t) + if Schedule.task_at sched (t mod p) = task then 1 else 0)
  done;
  let full = window / p and rest = window mod p in
  Array.init p (fun start ->
      (full * occ_per_period) + prefix.(start + rest) - prefix.(start))

let check_pc sched ~task ~a ~b =
  if a < 1 || b < a then invalid_arg "Verify.check_pc: need 1 <= a <= b";
  let counts = window_counts sched ~task ~window:b in
  let rec scan start =
    if start >= Array.length counts then None
    else if counts.(start) < a then
      Some { task; a; b; window_start = start; found = counts.(start) }
    else scan (start + 1)
  in
  scan 0

let check_task sched (t : Task.t) = check_pc sched ~task:t.Task.id ~a:t.Task.a ~b:t.Task.b

let check_system sched sys = List.filter_map (check_task sched) sys

(* ------------------------------------------------------------------ *)
(* Verification by occurrences                                         *)
(* ------------------------------------------------------------------ *)

(* pc(a, b) over a cyclic schedule of period p, given the ascending
   occurrence slots occ.(0..c-1) of one period: extend to the biinfinite
   occurrence sequence O_m = occ.(m mod c) + p·⌊m/c⌋. Every window of b
   consecutive slots holds >= a occurrences iff O_{m+a} - O_m <= b for
   all m. (⇐: for a window [s, s+b), let m be minimal with O_m >= s; then
   O_{m+a-1} <= O_{m-1} + b <= s - 1 + b < s + b, so occurrences
   m..m+a-1 all land inside. ⇒: the window [O_m + 1, O_m + b] must hold
   the a occurrences m+1..m+a, so O_{m+a} <= O_m + b.) By periodicity,
   checking m in [0, c) is exhaustive. *)
let occ_ok ~period occ ~a ~b =
  let c = Array.length occ in
  if c = 0 then false
  else begin
    let ok = ref true in
    let j = ref 0 in
    while !ok && !j < c do
      let m = !j + a in
      let o = occ.(m mod c) + (period * (m / c)) in
      if o - occ.(!j) > b then ok := false;
      incr j
    done;
    !ok
  end

let rec increasing a j = j >= Array.length a || (a.(j - 1) < a.(j) && increasing a (j + 1))

(* The slots of [0, period) claimed so far, sized for [n] claims: a
   bitmap of the period when that costs at most a word per claim, else
   the claims themselves, sorted once all are in. O(n) words either way,
   whatever the period. *)
type claims = Bitmap of Bytes.t | Listed of { slots : int array; mutable n : int }

let claims ~period n =
  if period <= 63 * n then Bitmap (Bytes.make ((period / 8) + 1) '\000')
  else Listed { slots = Array.make n 0; n = 0 }

(* Whether slot [t] was still free: always, for a listed claim, whose
   clashes [all_distinct] finds. *)
let claim c t =
  match c with
  | Bitmap seen ->
      let byte = Char.code (Bytes.get seen (t / 8)) and bit = 1 lsl (t mod 8) in
      Bytes.set seen (t / 8) (Char.chr (byte lor bit));
      byte land bit = 0
  | Listed l ->
      l.slots.(l.n) <- t;
      l.n <- l.n + 1;
      true

let all_distinct = function
  | Bitmap _ -> true
  | Listed { slots; _ } ->
      Array.stable_sort Int.compare slots;
      increasing slots 1

(* Each checked task's index, in order of first appearance in [sys]. *)
let task_index sys =
  let index = Inttbl.create 64 in
  List.iter
    (fun (t : Task.t) ->
      if not (Inttbl.mem index t.Task.id) then
        Inttbl.replace index t.Task.id (Inttbl.length index))
    sys;
  index

(* An array of [counts.(i)] slots for each [i < n]. Filled in place:
   [Array.map] over more than 256 tasks would force a minor collection
   to build an array of fresh arrays. *)
let lists n counts =
  let occs = Array.make n [||] in
  for i = 0 to n - 1 do
    occs.(i) <- Array.make counts.(i) 0
  done;
  occs

let tag_of index ~unchecked key =
  match Inttbl.find index key with i -> i | exception Not_found -> unchecked

(* One period's occurrences in closed form ({!Plan.iter_occurrences}),
   counted, then listed: every slot claimed, which must happen once, and
   each checked task's slots, sorted unless already ascending. Work and
   memory follow the number of occurrences, not the period. *)
let satisfies_plan plan sys =
  let index = task_index sys in
  let n = Inttbl.length index in
  (* Each occurrence with its task's index, [n] for a task not checked.
     Progressions list a key's slots in a run: look each run up once. *)
  let each f =
    let last = ref (-1) and tag = ref n in
    Plan.iter_occurrences plan (fun key t ->
        if key <> !last then begin
          last := key;
          tag := tag_of index ~unchecked:n key
        end;
        f !tag t)
  in
  (* [counts.(n)] counts every slot, [occs.(i)] lists those of checked
     task [i]. *)
  let counts = Array.make (n + 1) 0 in
  let count i = counts.(i) <- counts.(i) + 1 in
  each (fun i _ ->
      count n;
      if i < n then count i);
  let period = Plan.period plan in
  let claimed = claims ~period counts.(n) and fresh = ref true in
  let occs = lists n counts in
  Array.fill counts 0 n 0;
  each (fun i t ->
      if not (claim claimed t) then fresh := false;
      if i < n then begin
        occs.(i).(counts.(i)) <- t;
        count i
      end);
  !fresh
  && all_distinct claimed
  && List.for_all
       (fun (t : Task.t) ->
         let occ = occs.(Inttbl.find index t.Task.id) in
         if not (increasing occ 1) then Array.stable_sort Int.compare occ;
         occ_ok ~period occ ~a:t.Task.a ~b:t.Task.b)
       sys

(* An explicit schedule claims each slot once and lists it in order: one
   pass tags every slot with its task's index ([n] for idle or not
   checked, one lookup per run of a key) and counts it; a second files
   each checked slot, ascending. *)
let satisfies sched sys =
  let index = task_index sys in
  let n = Inttbl.length index in
  let slots = sched.Schedule.slots in
  let period = Array.length slots in
  let tags = Array.make period n and counts = Array.make (n + 1) 0 in
  let last = ref Schedule.idle and tag = ref n in
  for t = 0 to period - 1 do
    let key = slots.(t) in
    if key <> !last then begin
      last := key;
      tag := if key = Schedule.idle then n else tag_of index ~unchecked:n key
    end;
    tags.(t) <- !tag;
    counts.(!tag) <- counts.(!tag) + 1
  done;
  let occs = lists n counts in
  Array.fill counts 0 n 0;
  for t = 0 to period - 1 do
    let i = tags.(t) in
    if i < n then begin
      occs.(i).(counts.(i)) <- t;
      counts.(i) <- counts.(i) + 1
    end
  done;
  List.for_all
    (fun (t : Task.t) ->
      occ_ok ~period occs.(Inttbl.find index t.Task.id) ~a:t.Task.a ~b:t.Task.b)
    sys
