module Q = Pindisk_util.Q

let src = Logs.Src.create "pindisk.scheduler" ~doc:"Pinwheel scheduler decisions"

module Log = (val Logs.src_log src : Logs.LOG)

type algorithm = Sa | Sx | Sr | Sxy | Exact_small | Auto

let pp_algorithm ppf = function
  | Sa -> Format.fprintf ppf "Sa"
  | Sx -> Format.fprintf ppf "Sx"
  | Sr -> Format.fprintf ppf "Sr"
  | Sxy -> Format.fprintf ppf "Sxy"
  | Exact_small -> Format.fprintf ppf "exact"
  | Auto -> Format.fprintf ppf "auto"

let exact_small sys =
  if not (Task.is_unit_system sys) then None
  else
    match Exact.decide sys with
    | Exact.Feasible sched -> Some sched
    | Exact.Infeasible | Exact.Too_large -> None

let rec run_plan algorithm sys =
  match algorithm with
  | Sa -> Specialize.sa_plan sys
  | Sx -> Specialize.sx_plan sys
  | Sr -> Rotation.plan sys
  | Sxy -> Two_chain.plan sys
  | Exact_small -> Option.map Plan.explicit (exact_small sys)
  | Auto -> (
      match run_plan Sx sys with
      | Some p -> Some p
      | None -> (
          match run_plan Sr sys with
          | Some p -> Some p
          | None -> (
              match run_plan Sxy sys with
              | Some p -> Some p
              | None -> run_plan Exact_small sys)))

let plan ?(algorithm = Auto) sys =
  (match Task.check_system sys with
  | Error e -> invalid_arg ("Scheduler.plan: " ^ e)
  | Ok () -> ());
  if sys = [] then invalid_arg "Scheduler.plan: empty system";
  Log.debug (fun m ->
      m "scheduling %a (density %a) with %a" Task.pp_system sys Q.pp
        (Task.system_density sys) pp_algorithm algorithm);
  match Density.classify sys with
  | Density.Infeasible reason ->
      (* Sound pre-check: skip every construction attempt. *)
      Log.debug (fun m -> m "density pre-check: infeasible -- %s" reason);
      None
  | verdict -> (
      (match verdict with
      | Density.Guaranteed reason | Density.Exists reason ->
          Log.debug (fun m -> m "density pre-check: %s" reason)
      | _ -> ());
      match run_plan algorithm sys with
      | Some p ->
          Log.debug (fun m -> m "planned with period %d" (Plan.period p));
          Some p
      | None ->
          Log.debug (fun m -> m "no schedule found");
          None)

let guaranteed_density = function
  | Sa | Sx | Sxy | Auto -> Some (Q.make 1 2)
  | Sr | Exact_small -> None
