(* E23 -- cohort scale: million-client populations by weighted classes.

   The cohort engine collapses a client population into (file, phase,
   needed, deadline) equivalence classes: one analytic fold (memoryless
   faults) or one member sweep (correlated faults) per class, instead of
   one dispatcher pass per client. This harness measures what that buys
   on a 16-file dyadic broadcast system:

     - analytic population throughput: a zipf-apportioned closed-form
       population (classes spanning every file x 16 phases) folded under
       Bernoulli loss, in simulated clients per wall-second on a single
       domain. The acceptance floor is 10^6 clients/core/period.
     - sampled population throughput: the same classes forced through
       per-member seeded sampling (the Burst path's cost model).
     - an in-bench equivalence spot-check: sampled-fault Cohort.run must
       reproduce the per-client oracle Engine.run's result byte-for-byte
       on a ycsb trace (several fault models and seeds); the gate fails
       if they ever diverge.
     - the trace-mode speedup over Engine.run, whose per-slot walk
       Cohort.run's occurrence-to-occurrence sweep replaces.
     - the cost of skipping: a one-request Cohort.run whose file airs
       once every G slots, at G = 1024 over G = 16. Every piece is lost,
       so the member judges exactly 64 occurrences in 64·G slots either
       way; a ratio near 1 says the silent slots between them are free.

   Results land in BENCH_cohort.json; scripts/bench_gate.ml gates the
   floors (`--kind cohort`). Raw throughput is floor-gated only, never
   compared against the committed baseline: it is hardware-dependent,
   and the baseline comparison would punish slow runners for honesty.
   The trace-mode speedup over Engine.run is a ratio of two timings in
   one process, so it carries a floor too.

   Quick mode (PINDISK_COHORT_QUICK=1, used by CI and
   `make bench-cohort`) shrinks the population and the time budget. *)

module Task = Pindisk_pinwheel.Task
module Plan = Pindisk_pinwheel.Plan
module Scheduler = Pindisk_pinwheel.Scheduler
module Program = Pindisk.Program
module Workload = Pindisk_sim.Workload
module Fault = Pindisk_sim.Fault
module Cohort = Pindisk_sim.Cohort
module Engine = Pindisk_sim.Engine
module Cache = Pindisk_sim.Cache

let time_budget = ref 0.2

let mean_ns f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !reps < 2 || !elapsed < !time_budget do
    ignore (Sys.opaque_identity (f ()));
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  !elapsed *. 1e9 /. float_of_int !reps

(* A 16-file dyadic broadcast system, density 1/8: four hot files at
   window 64, four warm at 128, eight cold at 256. Period 256. *)
let system () =
  List.init 16 (fun i ->
      Task.unit ~id:i ~b:(if i < 4 then 64 else if i < 8 then 128 else 256))

let capacities = List.init 16 (fun i -> (i, if i < 4 then 8 else if i < 8 then 4 else 2))
let needed_of f = if f < 4 then 4 else if f < 8 then 2 else 1
let deadline_of f = if f < 4 then 300 else 400

(* Zipf-apportioned closed-form population: every file at 16 phases
   spread across the period, weights proportional to zipf(0.9) file
   popularity, totalling ~[clients]. *)
let population ~period ~clients =
  let weights = Cache.zipf_weights ~n:16 ~theta:0.9 in
  let phases = 16 in
  List.concat_map
    (fun f ->
      let per_class =
        max 1
          (int_of_float
             (weights.(f) *. float_of_int clients /. float_of_int phases))
      in
      List.init phases (fun i ->
          {
            Cohort.key =
              {
                Cohort.file = f;
                phase = i * (period / phases);
                needed = needed_of f;
                deadline = deadline_of f;
              };
            weight = per_class;
          }))
    (List.init 16 Fun.id)

(* A trace that actually collapses: 16 files x 8 phases = 128 classes
   regardless of length. *)
let collapsible_trace n =
  List.init n (fun k ->
      let file = k mod 16 in
      {
        Workload.issued = (k mod 8) + (256 * (k mod 40));
        file;
        needed = needed_of file;
        deadline = deadline_of file;
      })

(* One request on a file that airs once every [gap] slots
   ([Program.flat [(0, 1); (1, gap - 1)]]), every piece lost: the sweep
   judges 64 occurrences over [max_slots = 64·gap] and misses. *)
let sweep_ns ~gap =
  let program = Program.flat [ (0, 1); (1, gap - 1) ] in
  let trace =
    [ { Workload.issued = 0; file = 0; needed = 1; deadline = 64 * gap } ]
  in
  let fault ~seed = Fault.bernoulli ~p:1.0 ~seed in
  mean_ns (fun () ->
      Cohort.run ~max_slots:(64 * gap) ~program ~fault ~seed:1 trace)

let run () =
  let quick = Sys.getenv_opt "PINDISK_COHORT_QUICK" <> None in
  if quick then time_budget := 0.1;
  Format.printf "== E23 / cohort scale: weighted classes vs per-client engine ==@.";
  let plan =
    match Scheduler.plan (system ()) with
    | Some p -> p
    | None -> failwith "exp_cohort: density-1/8 system schedules"
  in
  let period = Plan.period plan in
  let program = Program.make ~schedule:(Plan.to_schedule plan) ~capacities in
  (* --- analytic population throughput ----------------------------- *)
  let clients = if quick then 2_000_000 else 20_000_000 in
  let classes = population ~period ~clients in
  let total =
    List.fold_left (fun acc (c : Cohort.cls) -> acc + c.Cohort.weight) 0 classes
  in
  let model = Cohort.Bernoulli { p = 0.1 } in
  let analytic_ns =
    mean_ns (fun () ->
        Cohort.run_population ~program ~model ~seed:1 classes)
  in
  let analytic_clients_per_sec = float_of_int total *. 1e9 /. analytic_ns in
  (* --- sampled population throughput ------------------------------ *)
  let sampled_clients = if quick then 50_000 else 200_000 in
  let sampled_pop = population ~period ~clients:sampled_clients in
  let sampled_total =
    List.fold_left
      (fun acc (c : Cohort.cls) -> acc + c.Cohort.weight)
      0 sampled_pop
  in
  let sampled_ns =
    mean_ns (fun () ->
        Cohort.run_population ~sampled:true ~program ~model ~seed:1 sampled_pop)
  in
  let sampled_clients_per_sec =
    float_of_int sampled_total *. 1e9 /. sampled_ns
  in
  (* --- equivalence spot-check: Cohort.run == Engine.run ----------- *)
  let ycsb_trace =
    Workload.ycsb ~program ~rate:0.05
      ~popularity:(Workload.Zipfian { theta = 0.9 })
      ~arrivals:(Workload.Diurnal { period = 512; trough = 0.2 })
      ~needed_of ~deadline_of ~horizon:2000 ~seed:23
  in
  let faults =
    [
      (fun ~seed -> Fault.bernoulli ~p:0.2 ~seed);
      (fun ~seed ->
        Fault.burst ~p_good_to_bad:0.1 ~p_bad_to_good:0.3 ~loss_good:0.02
          ~loss_bad:0.5 ~seed);
    ]
  in
  let render r = Format.asprintf "%a" Engine.pp_result r in
  let equal =
    List.for_all
      (fun fault ->
        List.for_all
          (fun seed ->
            render (Engine.run ~program ~fault ~seed ycsb_trace)
            = render
                (Cohort.run ~program ~fault ~seed ycsb_trace))
          [ 1; 2; 3 ])
      faults
  in
  (* --- trace-mode speedup over the per-client engine -------------- *)
  let trace = collapsible_trace (if quick then 2000 else 8000) in
  let nclasses = List.length (Cohort.classes_of_trace ~period trace) in
  let fault ~seed = Fault.bernoulli ~p:0.1 ~seed in
  let engine_ns =
    mean_ns (fun () -> Engine.run ~program ~fault ~seed:1 trace)
  in
  let cohort_ns =
    mean_ns (fun () -> Cohort.run ~program ~fault ~seed:1 trace)
  in
  let sweep_ns_16 = sweep_ns ~gap:16 and sweep_ns_1024 = sweep_ns ~gap:1024 in
  let sweep_cost_ratio = sweep_ns_1024 /. sweep_ns_16 in
  Format.printf
    "  population %d clients in %d classes: analytic %.2e clients/s, \
     sampled %.2e clients/s@."
    total (List.length classes) analytic_clients_per_sec
    sampled_clients_per_sec;
  Format.printf
    "  equivalence spot-check (%d requests, 2 fault models x 3 seeds): %s@."
    (List.length ycsb_trace)
    (if equal then "cohort == engine" else "DIVERGED");
  Format.printf
    "  trace mode: %d requests -> %d classes; engine %.2f ms, cohort %.2f ms \
     (%.2fx)@."
    (List.length trace) nclasses (engine_ns /. 1e6) (cohort_ns /. 1e6)
    (engine_ns /. cohort_ns);
  Format.printf
    "  one request, 64 occurrences at gap 1024 over gap 16: %.0f ns / %.0f ns \
     = %.2fx@."
    sweep_ns_1024 sweep_ns_16 sweep_cost_ratio;
  let path =
    Option.value
      (Sys.getenv_opt "PINDISK_COHORT_OUT")
      ~default:"BENCH_cohort.json"
  in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"cohort\",\n";
  out "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  out "  \"metrics\": %b,\n" (Pindisk_obs.Control.enabled ());
  out "  \"period\": %d,\n" period;
  out "  \"clients\": %d,\n" total;
  out "  \"classes\": %d,\n" (List.length classes);
  out "  \"cohort_clients_per_sec_analytic\": %.0f,\n" analytic_clients_per_sec;
  out "  \"cohort_sampled_clients_per_sec\": %.0f,\n" sampled_clients_per_sec;
  out "  \"cohort_equals_engine\": %.1f,\n" (if equal then 1.0 else 0.0);
  out "  \"cohort_speedup_over_engine\": %.2f,\n" (engine_ns /. cohort_ns);
  out "  \"sweep_cost_gap1024_over_gap16\": %.2f,\n" sweep_cost_ratio;
  out "  \"results\": [\n";
  out
    "    {\"stage\": \"analytic\", \"clients\": %d, \"classes\": %d, \
     \"run_ns\": %.0f},\n"
    total (List.length classes) analytic_ns;
  out
    "    {\"stage\": \"sampled\", \"clients\": %d, \"classes\": %d, \
     \"run_ns\": %.0f},\n"
    sampled_total (List.length sampled_pop) sampled_ns;
  out
    "    {\"stage\": \"trace\", \"requests\": %d, \"classes\": %d, \
     \"engine_ns\": %.0f, \"cohort_ns\": %.0f}\n"
    (List.length trace) nclasses engine_ns cohort_ns;
  out "  ]\n}\n";
  close_out oc;
  Format.printf "  wrote %s@.@." path
