module Q = Pindisk_util.Q

type certificate = Density_above_one of Q.t | Exhausted

type verdict = Schedulable of Schedule.t | Infeasible of certificate | Unknown

type report = {
  density : Q.t;
  harmonic : bool;
  distinct_windows : int;
  unit_system : bool;
  within_sa_guarantee : bool;
  certificate : certificate option;
  verdict : verdict;
}

let is_harmonic sys =
  let windows = List.sort_uniq compare (List.map (fun t -> t.Task.b) sys) in
  let rec go = function
    | a :: (b :: _ as rest) -> b mod a = 0 && go rest
    | _ -> true
  in
  go windows

let analyze sys =
  (match Task.check_system sys with
  | Error e -> invalid_arg ("Analysis.analyze: " ^ e)
  | Ok () -> ());
  if sys = [] then invalid_arg "Analysis.analyze: empty system";
  let density = Task.system_density sys in
  let certificate =
    if Q.( > ) density Q.one then Some (Density_above_one density) else None
  in
  let verdict =
    match certificate with
    | Some c -> Infeasible c
    | None -> (
        match Scheduler.plan sys with
        | Some plan -> Schedulable (Plan.to_schedule plan)
        | None -> (
            match Exact.decide sys with
            | Exact.Feasible sched -> Schedulable sched
            | Exact.Infeasible -> Infeasible Exhausted
            | Exact.Too_large -> Unknown))
  in
  let certificate =
    match (certificate, verdict) with
    | None, Infeasible c -> Some c
    | c, _ -> c
  in
  {
    density;
    harmonic = is_harmonic sys;
    distinct_windows =
      List.length (List.sort_uniq compare (List.map (fun t -> t.Task.b) sys));
    unit_system = Task.is_unit_system sys;
    within_sa_guarantee = Q.( <= ) density (Q.make 1 2);
    certificate;
    verdict;
  }

let pp_certificate ppf = function
  | Density_above_one d -> Format.fprintf ppf "density %a > 1" Q.pp d
  | Exhausted -> Format.fprintf ppf "exhaustive search: no infinite schedule"

let pp_report ppf r =
  Format.fprintf ppf "density %a%s; %d distinct window(s)%s%s; " Q.pp r.density
    (if r.within_sa_guarantee then " (within the 1/2 guarantee)" else "")
    r.distinct_windows
    (if r.harmonic then ", harmonic" else "")
    (if r.unit_system then "" else ", multi-unit");
  match r.verdict with
  | Schedulable sched ->
      Format.fprintf ppf "SCHEDULABLE (period %d)" (Schedule.period sched)
  | Infeasible c -> Format.fprintf ppf "INFEASIBLE: %a" pp_certificate c
  | Unknown -> Format.fprintf ppf "UNKNOWN (heuristics failed, search budget spent)"
