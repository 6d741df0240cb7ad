(* The four burst-chain probabilities, kept as floats for [loss_rate]
   and as integer cuts (see [cut]) for the per-slot verdicts. *)
type chain = {
  p_good_to_bad : float;
  p_bad_to_good : float;
  loss_good : float;
  loss_bad : float;
  to_bad : int; (* cut of p_good_to_bad *)
  to_good : int; (* cut of p_bad_to_good *)
  cut_good : int; (* cut of loss_good *)
  cut_bad : int; (* cut of loss_bad *)
}

type kind =
  | None_
  | Bernoulli of { p : float; cut : int }
  | Burst of chain
  | Deterministic of (int -> bool)

type t = {
  kind : kind;
  seed : int;
  mutable slot : int;
  mutable origin : int; (* the slot the stream was last started at *)
  mutable rng : Random.State.t option; (* seeded at the first draw *)
  mutable bad : bool; (* burst-model state *)
}

(* [Random.State.float s 1.0] is n·2⁻⁵³ for n the top 53 bits of the
   next 64-bit draw, redrawn while n = 0. So "u < p" holds exactly when
   n < ⌈p·2⁵³⌉: scaling by a power of two is exact, and n is an
   integer. [draw] returns that n, and each probability is compared as
   its cut, so a verdict boxes no float and reads the same stream. *)
let cut p = int_of_float (Float.ceil (Float.ldexp p 53))

let[@inline] top53 rng =
  Int64.to_int (Int64.shift_right_logical (Random.State.bits64 rng) 11)

let rec redraw rng =
  let n = top53 rng in
  if n <> 0 then n else redraw rng

let[@inline] draw rng =
  let n = top53 rng in
  if n <> 0 then n else redraw rng

(* [Random.State.make] digests its seed twice, so the stream is made at
   the first draw rather than at every (re)start: processes that never
   draw, or runs that end before their first heard slot, never pay. *)
let rng t =
  match t.rng with
  | Some r -> r
  | None ->
      let r = Random.State.make [| t.seed; t.origin; 0x5eed |] in
      t.rng <- Some r;
      r

let create ?(seed = 0) kind =
  { kind; seed; slot = 0; origin = 0; rng = None; bad = false }

let none () = create None_

(* Written so that NaN, which fails every comparison, is rejected too. *)
let check ~who name v =
  if not (v >= 0.0 && v <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.%s: %s must be in [0, 1]" who name)

let bernoulli ~p ~seed =
  check ~who:"bernoulli" "p" p;
  create ~seed (Bernoulli { p; cut = cut p })

let burst ~p_good_to_bad ~p_bad_to_good ~loss_good ~loss_bad ~seed =
  let check = check ~who:"burst" in
  check "p_good_to_bad" p_good_to_bad;
  check "p_bad_to_good" p_bad_to_good;
  check "loss_good" loss_good;
  check "loss_bad" loss_bad;
  create ~seed
    (Burst
       {
         p_good_to_bad;
         p_bad_to_good;
         loss_good;
         loss_bad;
         to_bad = cut p_good_to_bad;
         to_good = cut p_bad_to_good;
         cut_good = cut loss_good;
         cut_bad = cut loss_bad;
       })

let deterministic f = create (Deterministic f)

let reset_to t slot =
  t.slot <- slot;
  t.origin <- slot;
  t.rng <- None;
  t.bad <- false

(* The flip draw of one burst-chain step from state [bad]: returns the
   new state. The step's loss draw, judged against that state's cut,
   follows it. *)
let[@inline] step c rng bad =
  let flip = draw rng in
  if bad then flip >= c.to_good else flip < c.to_bad

let advance t =
  let lost =
    match t.kind with
    | None_ -> false
    | Deterministic f -> f t.slot
    | Bernoulli { cut; _ } -> draw (rng t) < cut
    | Burst c ->
        let r = rng t in
        let bad = step c r t.bad in
        t.bad <- bad;
        draw r < if bad then c.cut_bad else c.cut_good
  in
  t.slot <- t.slot + 1;
  lost

let skip t k =
  if k < 0 then invalid_arg "Fault.skip: negative slot count";
  (if k > 0 then
     match t.kind with
     | None_ | Deterministic _ -> ()
     | Bernoulli _ ->
         let r = rng t in
         for _ = 1 to k do
           ignore (draw r)
         done
     | Burst c ->
         let r = rng t in
         let bad = ref t.bad in
         for _ = 1 to k do
           bad := step c r !bad;
           ignore (draw r)
         done;
         t.bad <- !bad);
  t.slot <- t.slot + k

let loss_rate t =
  match t.kind with
  | None_ | Deterministic _ -> 0.0
  | Bernoulli { p; _ } -> p
  | Burst { p_good_to_bad; p_bad_to_good; loss_good; loss_bad; _ } ->
      (* Stationary distribution of the two-state chain. *)
      let denom = p_good_to_bad +. p_bad_to_good in
      if denom = 0.0 then loss_good
      else
        let pi_bad = p_good_to_bad /. denom in
        ((1.0 -. pi_bad) *. loss_good) +. (pi_bad *. loss_bad)
