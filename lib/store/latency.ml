module Intmath = Pindisk_util.Intmath

type verdict = Ready_in of int | Failed

type t =
  | Immediate
  | Fixed of int
  | Stochastic of { fail_p : float; slow_p : float; slow_slots : int; seed : int }
  | Scripted of (read_id:int -> slot:int -> verdict)
  | Stuck of { from_ : int; until_ : int; base : t }

let immediate = Immediate

let fixed d =
  if d < 0 then invalid_arg "Latency.fixed: negative service time";
  Fixed d

let stochastic ?(fail_p = 0.0) ?(slow_p = 0.0) ?(slow_slots = 4) ~seed () =
  let check name v =
    if not (v >= 0.0 && v <= 1.0) then
      invalid_arg (Printf.sprintf "Latency.stochastic: %s must be in [0, 1]" name)
  in
  check "fail_p" fail_p;
  check "slow_p" slow_p;
  if slow_slots < 0 then invalid_arg "Latency.stochastic: negative slow_slots";
  Stochastic { fail_p; slow_p; slow_slots; seed }

let scripted f = Scripted f

let stuck ~from_ ~until_ base =
  if from_ < 0 || until_ < from_ then
    invalid_arg "Latency.stuck: need 0 <= from_ <= until_";
  Stuck { from_; until_; base }

(* A unit-interval draw that is a pure function of its coordinates:
   splitmix64's finalizer over (seed, read_id, salt), mapped to [0, 1)
   with 48 bits of mantissa. *)
let uniform ~seed ~read_id ~salt =
  let h = Intmath.mix64 (Intmath.mix64 ((read_id * 0x9e3779b1) lxor salt) lxor seed) in
  float_of_int (h land 0xFFFF_FFFF_FFFF) /. 281_474_976_710_656.0

let rec draw t ~read_id ~slot =
  match t with
  | Immediate -> Ready_in 0
  | Fixed d -> Ready_in d
  | Stochastic { fail_p; slow_p; slow_slots; seed } ->
      if uniform ~seed ~read_id ~salt:0x5fa17 < fail_p then Failed
      else if uniform ~seed ~read_id ~salt:0x51077 < slow_p then
        Ready_in slow_slots
      else Ready_in 0
  | Scripted f -> f ~read_id ~slot
  | Stuck { from_; until_; base } ->
      let v = draw base ~read_id ~slot in
      if slot >= from_ && slot < until_ then
        match v with
        | Failed -> Failed
        | Ready_in d -> Ready_in (until_ - slot + d)
      else v
