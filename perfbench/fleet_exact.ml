(* fleet-exact: many small files sharded over 4 striped channels, served
   to 2-tuner clients by the exact per-request simulator. Each request
   is timed as its own one-request [Multi.run] whose seed reproduces the
   whole-trace fault streams exactly ([check] proves it on a prefix).
   Scheduler, core and per-request simulation heavy; no bytes. *)

module File_spec = Pindisk.File_spec
module Program = Pindisk.Program
module Shard = Pindisk.Shard
module Shardcheck = Pindisk_check.Shardcheck
module Scheduler = Pindisk_pinwheel.Scheduler
module Schedule = Pindisk_pinwheel.Schedule
module Multi = Pindisk_sim.Multi
module Engine = Pindisk_sim.Engine
module Fault = Pindisk_sim.Fault
module Workload = Pindisk_sim.Workload
module Stats = Pindisk_util.Stats
module Intmath = Pindisk_util.Intmath

let s_design = Spans.intern "core.design"
let s_certify = Spans.intern "check.certify"
let s_plan = Spans.intern "pinwheel.plan"
let s_block_at = Spans.intern "core.block_at"
let s_multi = Spans.intern "sim.multi_run"

let files = 768
let channels = 4
let stripe = 2
let tuners = 2
let horizon = 200_000
let probe_slots = 4096

(* A request still listening after the longest window has missed. *)
let max_slots = 4096

(* Gilbert–Elliott per channel: a higher channel enters its bad state
   more often. *)
let fault ~channel ~seed =
  Fault.burst
    ~p_good_to_bad:(0.001 *. float_of_int (channel + 1))
    ~p_bad_to_good:0.1 ~loss_good:0.02 ~loss_bad:0.5 ~seed

(* File enumeration for the trace generator, which only reads the
   program's file list. *)
let catalogue specs =
  Program.make
    ~schedule:
      (Schedule.make
         (Array.of_list (List.map (fun (f : File_spec.t) -> f.File_spec.id) specs)))
    ~capacities:
      (List.map (fun (f : File_spec.t) -> (f.File_spec.id, f.File_spec.capacity)) specs)

let design_of specs =
  match Shard.design ~stripe ~channels ~bandwidth:Gen.fleet_bandwidth specs with
  | Ok d -> d
  | Error e -> raise (Bench.Gate ("shard design: " ^ e))

let make ~quick ~seed =
  let requests = if quick then 100 else 1100 in
  let specs = Gen.fleet_specs ~files in
  let spec id = List.nth specs id in
  let width = horizon / 20 in
  let trace =
    Array.of_list
      (Workload.ycsb ~program:(catalogue specs)
         ~rate:(float_of_int requests /. float_of_int (horizon + (3 * width)))
         ~popularity:(Workload.Zipfian { theta = 0.9 })
         ~arrivals:(Workload.Flash { at = horizon / 2; magnitude = 4.0; width })
         ~needed_of:(fun id -> (spec id).File_spec.blocks)
         ~deadline_of:(fun id -> File_spec.window (spec id) ~bandwidth:Gen.fleet_bandwidth)
         ~horizon ~seed:(Intmath.mix64 (seed + 1)))
  in
  let fault_seed = Intmath.mix64 (seed + 2) in
  let ready = ref None in
  let setup spans =
    ready := None;
    let design = Spans.span spans s_design (fun () -> design_of specs) in
    Bench.gate (design.Shard.shed = []) "%d files shed from a feasible design"
      (List.length design.Shard.shed);
    let cert = Spans.span spans s_certify (fun () -> Shardcheck.run design) in
    Bench.gate (Shardcheck.ok cert) "Shardcheck.ok is false: %s"
      (String.concat "; " (Shardcheck.problems cert));
    ready := Some design
  in
  let get () = match !ready with Some d -> d | None -> invalid_arg "fleet-exact: not set up" in
  let probe spans =
    let design = get () in
    Array.iter
      (fun (ch : Shard.channel) ->
        if ch.Shard.tasks <> [] then
          Spans.span spans s_plan (fun () -> ignore (Scheduler.plan ch.Shard.tasks)))
      design.Shard.channels;
    for c = 0 to channels - 1 do
      Spans.span ~req:c spans s_block_at (fun () ->
          for s = 0 to probe_slots - 1 do
            ignore (Sys.opaque_identity (Shard.block_at design ~channel:c s))
          done)
    done
  in
  let one design k =
    Multi.run ~max_slots ~design ~tuners ~fault ~seed:(fault_seed + k) [ trace.(k) ]
  in
  let pass spans =
    let design = get () in
    let n = Array.length trace in
    let times = Array.make n 0.0 in
    let waits = Stats.create () in
    let missed = ref 0 and losses = ref 0 in
    let t_start = Timing.now_ns () in
    for k = 0 to n - 1 do
      let t0 = Timing.now_ns () in
      let sp = Spans.enter ~req:k spans s_multi in
      let r = one design k in
      Spans.leave spans sp;
      times.(k) <- float_of_int (Timing.now_ns () - t0);
      missed := !missed + r.Engine.missed;
      losses := !losses + r.Engine.losses;
      Stats.absorb waits r.Engine.latency
    done;
    let wall_s = float_of_int (Timing.now_ns () - t_start) *. 1e-9 in
    let f = float_of_int in
    {
      Bench.det =
        [
          ("requests", f n);
          ("missed", f !missed);
          ("miss_ratio", f !missed /. f n);
          ("wait_p50_slots", Stats.percentile waits 50.0);
          ("wait_p99_slots", Stats.percentile waits 99.0);
          ("losses", f !losses);
        ];
      attempted = n;
      failed = 0;
      wall_s;
      timings =
        [
          Timing.metric ~samples:n "requests_per_s" "1/s" (f n /. wall_s);
          Timing.metric ~samples:n "request_p50_ms" "ms" (Timing.percentile times 50.0 /. 1e6);
          Timing.metric ~samples:n "request_p99_ms" "ms" (Timing.percentile times 99.0 /. 1e6);
        ];
      counts = [];
    }
  in
  let layers (s : Spans.summary) (p : Bench.pass) =
    [
      Timing.metric "core.design_s" "s" (Spans.self_s s "core.design");
      Timing.metric ~samples:(Spans.count s "pinwheel.plan") "pinwheel.plan_s" "s"
        (Spans.self_s s "pinwheel.plan");
      Timing.metric "check.certify_s" "s" (Spans.self_s s "check.certify");
      Timing.metric ~samples:(channels * probe_slots) "core.block_at_ns" "ns"
        (Spans.self_s s "core.block_at" *. 1e9 /. float_of_int (channels * probe_slots));
      Timing.metric ~samples:(Spans.count s "sim.multi_run") "sim.multi_run_s" "s"
        (Spans.self_s s "sim.multi_run");
      Timing.metric ~samples:p.Bench.attempted "sim.losses_per_request" "count"
        (Bench.det p "losses" /. Bench.det p "requests");
    ]
  in
  (* One-request calls must reproduce the whole-trace run exactly. *)
  let check () =
    let design = get () in
    let n = min 100 (Array.length trace) in
    let whole =
      Multi.run ~max_slots ~design ~tuners ~fault ~seed:fault_seed
        (Array.to_list (Array.sub trace 0 n))
    in
    let waits = Stats.create () in
    let missed = ref 0 and losses = ref 0 and completed = ref 0 in
    for k = 0 to n - 1 do
      let r = one design k in
      missed := !missed + r.Engine.missed;
      losses := !losses + r.Engine.losses;
      completed := !completed + r.Engine.completed;
      Stats.absorb waits r.Engine.latency
    done;
    Bench.gate
      (whole.Engine.requests = n
      && whole.Engine.missed = !missed
      && whole.Engine.completed = !completed
      && whole.Engine.losses = !losses
      && Stats.count whole.Engine.latency = Stats.count waits
      && Stats.total whole.Engine.latency = Stats.total waits)
      "one-request Multi.run calls disagree with the whole-trace run (%d/%d vs %d/%d missed)"
      !missed n whole.Engine.missed whole.Engine.requests
  in
  {
    Bench.setup;
    probe;
    pass;
    e2e = Bench.median_timings;
    layers;
    check;
    pool_size = 1;
  }
