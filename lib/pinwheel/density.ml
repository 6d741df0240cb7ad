module Q = Pindisk_util.Q

type verdict =
  | Infeasible of string
  | Guaranteed of string
  | Exists of string
  | Unknown

let pp_verdict ppf = function
  | Infeasible r -> Format.fprintf ppf "infeasible (%s)" r
  | Guaranteed r -> Format.fprintf ppf "schedulable (%s)" r
  | Exists r -> Format.fprintf ppf "a schedule exists (%s)" r
  | Unknown -> Format.fprintf ppf "undecided by density bounds"

let q_str q = Printf.sprintf "%d/%d" q.Q.num q.Q.den

type load = { density : Q.t; tasks : int; unit2 : bool; unit3 : bool }

let empty = { density = Q.zero; tasks = 0; unit2 = false; unit3 = false }

let add l (t : Task.t) =
  {
    density = Q.add l.density (Task.density t);
    tasks = l.tasks + 1;
    unit2 = l.unit2 || (t.Task.a = 1 && t.Task.b = 2);
    unit3 = l.unit3 || (t.Task.a = 1 && t.Task.b = 3);
  }

let density l = l.density

(* The paper's Example 1 family: {2, 3, M} is infeasible for every finite
   M (Holte et al. 1989). Any valid schedule for a superset, restricted to
   the windows-2 and -3 tasks plus any third task (which must occur at
   least once per window), would schedule {2, 3, M} — contradiction. *)
let family l = l.unit2 && l.unit3 && l.tasks >= 3

let admits l t =
  let l = add l t in
  Q.( <= ) l.density Q.one && not (family l)

(* A window-1 task has density 1, so every system at or below 5/6 has
   minimum window >= 2, as Kawamura's theorem requires. *)
let of_density d =
  if Q.( > ) d Q.one then
    Infeasible (Printf.sprintf "density %s exceeds 1" (q_str d))
  else if Q.( <= ) d (Q.make 1 2) then
    Guaranteed
      (Printf.sprintf "density %s <= 1/2: Holte et al. bound, constructive via Sa"
         (q_str d))
  else if Q.( <= ) d (Q.make 5 6) then
    Exists (Printf.sprintf "density %s <= 5/6: Kawamura density threshold" (q_str d))
  else Unknown

let classify sys =
  let l = List.fold_left add empty sys in
  if l.tasks = 0 then Guaranteed "empty system"
  else if family l && Q.( <= ) l.density Q.one then
    Infeasible "contains {2, 3, _}: infeasible for every third task"
  else of_density l.density
