module Obs = Pindisk_obs

let obs_decisions = Obs.Registry.counter "adapt.decisions"
let obs_transitions = Obs.Registry.counter "adapt.transitions"
let obs_stalls = Obs.Registry.counter "adapt.stalls"
let obs_boost = Obs.Registry.gauge "adapt.boost"

type t = {
  estimator : Estimator.t;
  policy : Policy.t;
  ladder : Ladder.t;
  swap : Swap.t;
  mutable plan : Ladder.plan;
  mutable last_window : int;
}

let create ~estimator ~policy ladder =
  let plan = Ladder.plan ladder ~boost:0 in
  {
    estimator;
    policy;
    ladder;
    swap = Swap.create plan.Ladder.program;
    plan;
    last_window = 0;
  }

let tick t slot = Swap.tick t.swap slot
let report t ~lost = Estimator.observe t.estimator ~lost

let decide t ~slot =
  let w = Estimator.windows t.estimator in
  if w > t.last_window then begin
    t.last_window <- w;
    let obs = Obs.Control.enabled () in
    if obs then Obs.Registry.incr obs_decisions;
    let e = Estimator.estimate t.estimator in
    match Policy.observe t.policy e with
    | None -> ()
    | Some idx ->
        let level = (Policy.levels t.policy).(idx) in
        let plan = Ladder.plan t.ladder ~boost:level.Policy.boost in
        t.plan <- plan;
        if obs then begin
          Obs.Registry.incr obs_transitions;
          Obs.Registry.set obs_boost level.Policy.boost
        end;
        let cause =
          Format.asprintf "loss estimate %.3f -> level %s (boost %d, %a)" e
            level.Policy.name level.Policy.boost Ladder.pp_rung
            plan.Ladder.rung
        in
        Swap.stage ~slot t.swap ~cause plan.Ladder.program
  end

(* A server-side stall is evidence of total outage for the slots it
   covered: no client received anything. Feed the estimator one full
   window of losses — the strongest single observation it accepts — and
   run a decision immediately, so repeated stalls climb the ladder at
   the policy's dwell pace exactly like sustained channel loss. *)
let notify_stall t ~slot =
  if Obs.Control.enabled () then Obs.Registry.incr obs_stalls;
  for _ = 1 to Estimator.window t.estimator do
    Estimator.observe t.estimator ~lost:true
  done;
  decide t ~slot

let block_at t slot = Swap.block_at t.swap slot
let plan t = t.plan
let swap_log t = Swap.log t.swap
