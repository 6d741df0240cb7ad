(* Random pinwheel instances drawn only by the tests: deterministic
   given the seed, each generator building its own [Random.State.t]. *)

module Task = Pindisk_pinwheel.Task

(* [n] single-unit tasks with windows drawn uniformly from [[2, max_b]];
   no density control, so the system may well be infeasible. *)
let unit_system ~seed ~n ~max_b =
  if n < 1 || max_b < 2 then invalid_arg "Gen.unit_system: need n >= 1, max_b >= 2";
  let rng = Random.State.make [| seed; n; max_b |] in
  List.init n (fun id -> Task.unit ~id ~b:(2 + Random.State.int rng (max_b - 1)))

(* Like [Gen.unit_system_with_density], with computation requirements
   [a] drawn from [[1, max_a]] and [b >= 2a]. *)
let multi_unit_system ~seed ~n ~max_a ~max_b ~target =
  if n < 1 || max_a < 1 || max_b < 2 then
    invalid_arg "Gen.multi_unit_system: bad parameters";
  if not (target > 0.0 && target <= 1.0) then
    invalid_arg "Gen.multi_unit_system: target in (0, 1]";
  let rng =
    Random.State.make [| seed; n; max_a; max_b; int_of_float (target *. 1e6) |]
  in
  let rec draw id used acc tries =
    if id >= n || tries > 200 * n then List.rev acc
    else
      let a = 1 + Random.State.int rng max_a in
      let b = max (a * 2) (2 + Random.State.int rng (max_b - 1)) in
      let d = float_of_int a /. float_of_int b in
      if used +. d <= target +. 1e-12 then
        draw (id + 1) (used +. d) (Task.make ~id ~a ~b :: acc) tries
      else draw id used acc (tries + 1)
  in
  draw 0 0.0 [] 0
