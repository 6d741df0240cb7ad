module Intmath = Pindisk_util.Intmath

type progression = { key : int; offset : int; period : int }

type t =
  | Progressions of { period : int; progs : progression list }
  | Merge of { c : int; d : int; period : int; first : t; second : t }
  | Explicit of Schedule.t

let beatty_hit ~c ~d t = ((t + 1) * c / d) - (t * c / d) > 0

let progressions progs =
  List.iter
    (fun p ->
      if p.period < 1 then invalid_arg "Plan.progressions: period must be >= 1";
      if p.offset < 0 || p.offset >= p.period then
        invalid_arg "Plan.progressions: need 0 <= offset < period";
      if p.key < 0 then invalid_arg "Plan.progressions: negative key")
    progs;
  let period = Intmath.lcm_list (List.map (fun p -> p.period) progs) in
  Progressions { period; progs }

let period = function
  | Progressions { period; _ } | Merge { period; _ } -> period
  | Explicit s -> Schedule.period s

let merge ~c ~d first second =
  if c < 1 || c >= d then invalid_arg "Plan.merge: need 1 <= c < d";
  let period = Intmath.mul_exn d (Intmath.lcm (period first) (period second)) in
  Merge { c; d; period; first; second }

let explicit sched = Explicit sched

let rec task_ids = function
  | Progressions { progs; _ } ->
      List.sort_uniq compare (List.map (fun p -> p.key) progs)
  | Merge { first; second; _ } ->
      List.sort_uniq compare (task_ids first @ task_ids second)
  | Explicit s -> Schedule.task_ids s

(* ------------------------------------------------------------------ *)
(* Occurrences in closed form                                          *)
(* ------------------------------------------------------------------ *)

(* Slots [t < n] with [beatty_hit ~c ~d t] number [⌊n·c/d⌋], so the τ-th
   hit is [⌈(τ+1)d/c⌉ − 1] and the σ-th miss is [⌊σd/(d−c)⌋]. A merge
   runs [d·lcm] slots, in which each sub-plan's virtual timeline repeats
   a whole number of its own periods. *)
let rec iter_occurrences plan f =
  match plan with
  | Progressions { period; progs } ->
      List.iter
        (fun p ->
          let t = ref p.offset in
          while !t < period do
            f p.key !t;
            t := !t + p.period
          done)
        progs
  | Merge { c; d; period = n; first; second } ->
      let unroll sub ~slots slot_of =
        let p = period sub in
        iter_occurrences sub (fun key v ->
            let tau = ref v in
            while !tau < slots do
              f key (slot_of !tau);
              tau := !tau + p
            done)
      in
      unroll first ~slots:(n / d * c) (fun tau -> ((((tau + 1) * d) + c - 1) / c) - 1);
      unroll second ~slots:(n / d * (d - c)) (fun sigma -> sigma * d / (d - c))
  | Explicit s ->
      Array.iteri (fun t key -> if key <> Schedule.idle then f key t) s.Schedule.slots

let to_schedule plan =
  let slots = Array.make (period plan) Schedule.idle in
  iter_occurrences plan (fun key t ->
      if slots.(t) <> Schedule.idle then
        invalid_arg "Plan.to_schedule: colliding progressions";
      slots.(t) <- key);
  Schedule.adopt slots

(* ------------------------------------------------------------------ *)
(* Online dispatcher                                                   *)
(* ------------------------------------------------------------------ *)

(* An array-based binary min-heap keyed by next-occurrence time. Because
   progressions of a valid plan are pairwise disjoint, at most one entry
   is due per slot, so every slot costs one peek plus at most one
   pop/push: O(log n). *)
type heap = {
  progs : progression array; (* for reset *)
  times : int array;
  keys : int array;
  periods : int array;
  mutable size : int;
}

let heap_swap h i j =
  let swap a i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  swap h.times i j;
  swap h.keys i j;
  swap h.periods i j

let rec heap_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < h.size && h.times.(l) < h.times.(i) then l else i in
  let m = if r < h.size && h.times.(r) < h.times.(m) then r else m in
  if m <> i then begin
    heap_swap h i m;
    heap_down h m
  end

let heap_fill h =
  Array.iteri
    (fun i p ->
      h.times.(i) <- p.offset;
      h.keys.(i) <- p.key;
      h.periods.(i) <- p.period)
    h.progs;
  h.size <- Array.length h.progs;
  for i = (h.size / 2) - 1 downto 0 do
    heap_down h i
  done

let heap_make progs =
  let n = Array.length progs in
  let h =
    {
      progs;
      times = Array.make (max n 1) 0;
      keys = Array.make (max n 1) 0;
      periods = Array.make (max n 1) 0;
      size = n;
    }
  in
  heap_fill h;
  h

type dispatcher =
  | D_progs of { heap : heap; mutable now : int }
  | D_merge of {
      c : int;
      d : int;
      mutable now : int;
      first : dispatcher;
      second : dispatcher;
    }
  | D_explicit of { slots : int array; mutable now : int }

let rec create = function
  | Progressions { progs; _ } ->
      D_progs { heap = heap_make (Array.of_list progs); now = 0 }
  | Merge { c; d; first; second; _ } ->
      D_merge { c; d; now = 0; first = create first; second = create second }
  | Explicit s -> D_explicit { slots = Array.copy s.Schedule.slots; now = 0 }

let rec next d =
  match d with
  | D_progs p ->
      let h = p.heap in
      let v =
        if h.size > 0 && h.times.(0) = p.now then begin
          let key = h.keys.(0) in
          h.times.(0) <- h.times.(0) + h.periods.(0);
          heap_down h 0;
          key
        end
        else Schedule.idle
      in
      p.now <- p.now + 1;
      v
  | D_merge m ->
      let v =
        if beatty_hit ~c:m.c ~d:m.d m.now then next m.first else next m.second
      in
      m.now <- m.now + 1;
      v
  | D_explicit e ->
      let v = e.slots.(e.now mod Array.length e.slots) in
      e.now <- e.now + 1;
      v

let slot = function
  | D_progs p -> p.now
  | D_merge m -> m.now
  | D_explicit e -> e.now

let rec reset = function
  | D_progs p ->
      heap_fill p.heap;
      p.now <- 0
  | D_merge m ->
      m.now <- 0;
      reset m.first;
      reset m.second
  | D_explicit e -> e.now <- 0

