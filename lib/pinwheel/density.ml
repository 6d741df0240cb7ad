module Q = Pindisk_util.Q

type verdict =
  | Infeasible of string
  | Guaranteed of string
  | Unknown

let pp_verdict ppf = function
  | Infeasible r -> Format.fprintf ppf "infeasible (%s)" r
  | Guaranteed r -> Format.fprintf ppf "schedulable (%s)" r
  | Unknown -> Format.fprintf ppf "undecided by density bounds"

let schedulable_threshold ~min_window =
  if min_window < 2 then Q.one else Q.make 5 6

let q_str q = Printf.sprintf "%d/%d" q.Q.num q.Q.den

type load = {
  density : Q.t;
  tasks : int;
  min_window : int;
  unit2 : bool;
  unit3 : bool;
}

let empty =
  { density = Q.zero; tasks = 0; min_window = max_int; unit2 = false; unit3 = false }

let add l (t : Task.t) =
  {
    density = Q.add l.density (Task.density t);
    tasks = l.tasks + 1;
    min_window = min l.min_window t.Task.b;
    unit2 = l.unit2 || (t.Task.a = 1 && t.Task.b = 2);
    unit3 = l.unit3 || (t.Task.a = 1 && t.Task.b = 3);
  }

let density l = l.density

let infeasible l =
  if Q.( > ) l.density Q.one then
    Some (Printf.sprintf "density %s exceeds 1" (q_str l.density))
  else if l.unit2 && l.unit3 && l.tasks >= 3 then
    (* The paper's Example 1 family: {2, 3, M} is infeasible for every
       finite M (Holte et al. 1989). Any valid schedule for a superset,
       restricted to the windows-2 and -3 tasks plus any third task
       (which must occur at least once per window), would schedule
       {2, 3, M} — contradiction. *)
    Some "contains {2, 3, _}: infeasible for every third task"
  else None

let admits l t = infeasible (add l t) = None

let classify sys =
  let l = List.fold_left add empty sys in
  if l.tasks = 0 then Guaranteed "empty system"
  else
    match infeasible l with
    | Some reason -> Infeasible reason
    | None ->
        let d = l.density and min_window = l.min_window in
        if Q.( <= ) d (Q.make 1 2) && min_window >= 2 then
          Guaranteed
            (Printf.sprintf "density %s <= 1/2: Holte et al. bound, constructive via Sa"
               (q_str d))
        else if Q.( <= ) d (schedulable_threshold ~min_window) && min_window >= 2
        then
          Guaranteed
            (Printf.sprintf "density %s <= 5/6: Kawamura density threshold"
               (q_str d))
        else Unknown
