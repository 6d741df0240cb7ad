let unit_system_with_density ~seed ~n ~max_b ~target =
  if n < 1 || max_b < 2 then
    invalid_arg "Gen.unit_system_with_density: need n >= 1, max_b >= 2";
  if not (target > 0.0 && target <= 1.0) then
    invalid_arg "Gen.unit_system_with_density: target in (0, 1]";
  let rng = Random.State.make [| seed; n; max_b; int_of_float (target *. 1e6) |] in
  let rec draw id used acc tries =
    if id >= n || tries > 200 * n then List.rev acc
    else
      let b = 2 + Random.State.int rng (max_b - 1) in
      let d = 1.0 /. float_of_int b in
      if used +. d <= target +. 1e-12 then
        draw (id + 1) (used +. d) (Task.unit ~id ~b :: acc) tries
      else draw id used acc (tries + 1)
  in
  draw 0 0.0 [] 0
