module Intmath = Pindisk_util.Intmath

(* The burst chain's probabilities, as floats for [loss_rate], as cuts
   (see [draw]) for the verdicts, and as log (1 - q) for the sojourns. *)
type chain = {
  p_good_to_bad : float;
  p_bad_to_good : float;
  loss_good : float;
  loss_bad : float;
  cut_good : int; (* cut of loss_good *)
  cut_bad : int; (* cut of loss_bad *)
  stay_good : float; (* log1p (-p_good_to_bad) *)
  stay_bad : float; (* log1p (-p_bad_to_good) *)
}

type kind =
  | None_
  | Bernoulli of { p : float; cut : int }
  | Burst of chain
  | Deterministic of (int -> bool)

(* Verdicts count slots from [origin]. The burst chain is in state [bad]
   until the relative slot [change] (max_int: never), where the next
   state change takes effect; [sojourns] counts the lengths drawn. *)
type t = {
  kind : kind;
  seed : int; (* mix64 (seed lxor gamma) *)
  mutable slot : int;
  mutable origin : int;
  mutable key : int;
  mutable bad : bool;
  mutable change : int;
  mutable sojourns : int;
}

(* 2⁶⁴/φ shifted right by two to fit an int: odd, so [key + c·gamma]
   visits distinct points for distinct counters c. *)
let gamma = 0x278dde6e5fd29f05

(* The top 53 bits of the splitmix64 finalizer at counter [c]. As a
   float n·2⁻⁵³, "u < p" holds exactly when n < ⌈p·2⁵³⌉: scaling by a
   power of two is exact, and n is an integer. So each probability is
   compared as its cut and a verdict boxes no float. *)
let[@inline] draw key c = Intmath.mix64 (key + (c * gamma)) lsr 9

let cut p = int_of_float (Float.ceil (Float.ldexp p 53))

(* A geometric sojourn length, at least 1, in a state left with
   probability q, where [stay] is log (1 - q): inverse transform of the
   next uniform u in (0, 1] of the negative counter domain, so sojourn
   lengths never reuse a verdict's counter. q = 0 (or a length past
   2⁶⁰) never leaves. *)
let sojourn t stay =
  t.sojourns <- t.sojourns + 1;
  let u = Float.ldexp (float_of_int (draw t.key (-t.sojourns) + 1)) (-53) in
  let x = Float.log u /. stay in
  if x < 0x1p60 then 1 + int_of_float x else max_int

(* The chain starts good, as if it were good at relative slot -1: its
   first sojourn counts from there, so slot 0 can already be bad. *)
let reset_to t slot =
  t.slot <- slot;
  t.origin <- slot;
  t.key <- Intmath.mix64 (t.seed + slot);
  t.bad <- false;
  t.sojourns <- 0;
  t.change <-
    (match t.kind with
    | Burst c ->
        let l = sojourn t c.stay_good in
        if l = max_int then max_int else l - 1
    | None_ | Bernoulli _ | Deterministic _ -> max_int)

let create ?(seed = 0) kind =
  let seed = Intmath.mix64 (seed lxor gamma) in
  let t = { kind; seed; slot = 0; origin = 0; key = 0; bad = false;
            change = max_int; sojourns = 0 } in
  reset_to t 0;
  t

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
         cut_good = cut loss_good;
         cut_bad = cut loss_bad;
         stay_good = Float.log1p (-.p_good_to_bad);
         stay_bad = Float.log1p (-.p_bad_to_good);
       })

let deterministic f = create (Deterministic f)

(* Take every state change at or before relative slot [i]. *)
let rec catch_up t c i =
  t.bad <- not t.bad;
  let l = sojourn t (if t.bad then c.stay_bad else c.stay_good) in
  t.change <- (if l = max_int then max_int else t.change + l);
  if t.change <= i then catch_up t c i

let advance t =
  let i = t.slot - t.origin in
  let lost =
    match t.kind with
    | None_ -> false
    | Deterministic f -> f t.slot
    | Bernoulli { cut; _ } -> draw t.key i < cut
    | Burst c ->
        if t.change <= i then catch_up t c i;
        draw t.key i < if t.bad then c.cut_bad else c.cut_good
  in
  t.slot <- t.slot + 1;
  lost

let skip t k =
  if k < 0 then invalid_arg "Fault.skip: negative slot count";
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
