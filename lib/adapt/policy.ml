type level = { name : string; enter : float; exit : float; boost : int }

let level ?(boost = 0) ?(enter = 0.0) ?(exit = 0.0) name =
  { name; enter; exit; boost }

type t = {
  levels : level array;
  dwell : int;
  mutable current : int;
  mutable candidate : int;
  mutable streak : int;
}

let create ?(dwell = 3) levels =
  if dwell < 1 then invalid_arg "Policy.create: dwell must be >= 1";
  let levels = Array.of_list levels in
  if Array.length levels = 0 then invalid_arg "Policy.create: no levels";
  for i = 1 to Array.length levels - 1 do
    let l = levels.(i) in
    if not (0.0 <= l.exit && l.exit < l.enter && l.enter <= 1.0) then
      invalid_arg
        (Printf.sprintf "Policy.create: level %s needs 0 <= exit < enter <= 1"
           l.name);
    if i > 1 then begin
      let prev = levels.(i - 1) in
      if l.enter <= prev.enter || l.exit <= prev.exit then
        invalid_arg "Policy.create: thresholds must increase along the ladder"
    end
  done;
  { levels; dwell; current = 0; candidate = 0; streak = 0 }

let current_level t = t.levels.(t.current)
let levels t = Array.copy t.levels

(* The level the estimate warrants, relative to the current one: the
   highest level whose [enter] the estimate reaches, else the lowest level
   the estimate cannot [exit] from. Thresholds are monotone, so "highest
   entered" is well defined and the downward walk stops at the first
   sustainable level. *)
let target t e =
  let n = Array.length t.levels in
  let up = ref t.current in
  for j = t.current + 1 to n - 1 do
    if e >= t.levels.(j).enter then up := j
  done;
  if !up > t.current then !up
  else begin
    let down = ref t.current in
    while !down > 0 && e < t.levels.(!down).exit do
      decr down
    done;
    !down
  end

let observe t e =
  let cand = target t e in
  if cand = t.current then begin
    t.candidate <- t.current;
    t.streak <- 0;
    None
  end
  else begin
    if cand = t.candidate then t.streak <- t.streak + 1
    else begin
      t.candidate <- cand;
      t.streak <- 1
    end;
    if t.streak >= t.dwell then begin
      t.current <- cand;
      t.streak <- 0;
      Some cand
    end
    else None
  end
