(* Benchmark-regression gate.

   Compares a fresh quick-mode benchmark artifact (BENCH_sched.json /
   BENCH_codec.json) against the committed baseline in bench/baselines/
   and exits non-zero when a headline metric regresses beyond the
   tolerance band. Run by `make bench-gate` and by the bench-gate CI job.

   Only scale-free ratios are gated — speedups and memory ratios — never
   raw ns/slot or MB/s, which vary wildly across runner hardware. Each
   metric additionally carries a fixed floor from the acceptance criteria
   (e.g. four channels must serve >= 3x the files of one), so a
   slow-but-uniform runner cannot mask a real regression by dragging the
   baseline comparison down with it.

     bench_gate --kind sched --fresh BENCH_sched.json
                --baseline bench/baselines/BENCH_sched.baseline.json
                --summary bench_gate_summary.md [--append]
                [--tolerance 1.8] [--inject-slowdown 2.0]

   --inject-slowdown F divides every higher-is-better fresh metric by F
   before gating; CI uses it to prove the gate actually fails on a 2x
   slowdown (a gate that cannot fail gates nothing). *)

module Json = Pindisk_check.Json
module Summary = Pindisk_report.Summary

type direction = Higher_is_better | Lower_is_better

type check = {
  metric : string;
  dir : direction;
  floor : float option; (* absolute bound regardless of baseline *)
  gate_vs_baseline : bool; (* also compare against baseline/tolerance *)
  requires : string option;
      (* gate only when this fresh-artifact flag is nonzero; a metric the
         runner cannot meaningfully measure (e.g. multicore scaling on a
         single-core box) is reported but not enforced *)
}

(* The dispatcher is gated on its own cost: Plan.next's ns per slot over
   a frozen copy of the progressions dispatcher's, timed in alternating
   rounds of the same run (the median round, at n = 1024 and 4096). The
   copy shares every machine effect, so the ratio reads 1.03-1.11 on any
   runner and a Plan.next twice as slow reads 2.10-2.34; the ceiling is
   1.5 and the baseline bound 1.8x. Nothing but the dispatcher is in the
   ratio: the eager build (plan, materialize, verify) over one
   dispatched slot, which this gate replaced, fell whenever planning got
   faster; it stays in the artifact, ungated, with the dispatcher over a
   task_at lookup, whose cheap division a busy sibling core slows far
   more than a heap step (it read 25.8-32.3 at n = 1024 over six runs).
   A planner whose cost per task grows with n (a packer scanning every
   column for every task read 5.1-8.1x) breaks the plan-cost ceiling. *)
let sched_checks =
  [
    { metric = "dispatch_over_frozen_n1024"; dir = Lower_is_better;
      floor = Some 1.5; gate_vs_baseline = true; requires = None };
    { metric = "dispatch_over_frozen_n4096"; dir = Lower_is_better;
      floor = Some 1.5; gate_vs_baseline = true; requires = None };
    { metric = "plan_cost_per_task_n4096_over_n256"; dir = Lower_is_better;
      floor = Some 4.0; gate_vs_baseline = false; requires = None };
    (* Dispatcher memory must not follow the hyperperiod: a 256x deeper
       hyperperiod may cost the online state at most 1.5x. Pure
       structure, no baseline comparison needed. *)
    { metric = "online_memory_ratio_deep_over_base_n4096";
      dir = Lower_is_better; floor = Some 1.5; gate_vs_baseline = false;
      requires = None };
  ]

(* The floors trace the codec acceptance criteria at m=8 / 64 KiB: the
   engine must beat the seed codec >= 10x and the frozen v1 wide-table
   kernel >= 5x in the fault-tolerant shape (n=10, where the two coded
   rows still pay a row-kernel sweep each), >= 10x over v1 on the pure
   systematic shape (n=8, dispersal degenerates to blits), and 4-domain
   dispersal must scale >= 2x over 1-domain wherever the runner actually
   has the cores to show it. Reconstruction from pieces 2..9 of n=10
   (two erased rows) must beat the seed codec >= 8x. The shape a
   broadcast client decodes most, m=4, n=5, 128 KiB from pieces 1..4
   (one erased row over 32 KiB pieces), must clear 6x. Every row except
   scaling must also clear its baseline within tolerance: the row-kernel
   engine reads 21-24x (disperse) and 18-21x (m=8 reconstruct) in quick
   runs, twice its floors, so only the baseline comparison fails an
   injected 2x slowdown on those rows. *)
let codec_checks =
  [
    { metric = "disperse_m8_64KiB_table_over_baseline";
      dir = Higher_is_better; floor = Some 1.5; gate_vs_baseline = true;
      requires = None };
    { metric = "disperse_m8_64KiB_engine_over_baseline";
      dir = Higher_is_better; floor = Some 10.0; gate_vs_baseline = true;
      requires = None };
    { metric = "disperse_m8_64KiB_engine_over_table";
      dir = Higher_is_better; floor = Some 5.0; gate_vs_baseline = true;
      requires = None };
    { metric = "disperse_m8n8_64KiB_engine_over_table";
      dir = Higher_is_better; floor = Some 10.0; gate_vs_baseline = true;
      requires = None };
    { metric = "disperse_m8_64KiB_scaling_4dom_over_1dom";
      dir = Higher_is_better; floor = Some 2.0; gate_vs_baseline = false;
      requires = Some "parallel_capable" };
    { metric = "reconstruct_m8_64KiB_engine_over_baseline";
      dir = Higher_is_better; floor = Some 8.0; gate_vs_baseline = true;
      requires = None };
    { metric = "reconstruct_m4_128KiB_one_erased_engine_over_baseline";
      dir = Higher_is_better; floor = Some 6.0; gate_vs_baseline = true;
      requires = None };
  ]

(* Chaos metrics are slot-domain and fully deterministic under the fixed
   scenario seeds, so they gate identically on any runner. The floors
   come straight from the recovery invariants: zero violations ever;
   recovery bounded by restart + checkpoint cadence + lookahead
   (8 + 16 + 3); the 20%-fault retrieval tail within a small factor of
   the fault-free one. *)
let chaos_checks =
  [
    { metric = "violations_total"; dir = Lower_is_better; floor = Some 0.0;
      gate_vs_baseline = false; requires = None };
    { metric = "recovery_slots_f20"; dir = Lower_is_better; floor = Some 27.0;
      gate_vs_baseline = true; requires = None };
    { metric = "retrieval_latency_ratio_f20_over_f0"; dir = Lower_is_better;
      floor = Some 6.0; gate_vs_baseline = true; requires = None };
  ]

(* Cohort floors come from the E23 acceptance criteria: the analytic
   fold must simulate >= 10^6 clients per core per wall-second, and the
   in-bench spot-check (sampled Cohort.run vs the per-client oracle
   Engine.run, several fault models and seeds) must agree byte-for-byte
   — cohort_equals_engine is 1.0 or the gate fails. Cohort.run must also
   beat Engine.run >= 2x on the same trace: Engine.run judges every
   slot, while the cohort sweep only draws the fault stream between a
   member's own-file slots. Both are timed in one process, so the ratio
   is scale-free, but it is floor-gated only, like raw throughput,
   which is hardware-dependent and never compared against the baseline.
   Skipping must stay free: a one-request Cohort.run that judges 64
   occurrences of a file aired once every 1024 slots may cost at most 3x
   the same run at one every 16 slots. A ratio of two timings of the
   same code, so a ceiling only, like the multichannel request cost. *)
let cohort_checks =
  [
    { metric = "cohort_clients_per_sec_analytic"; dir = Higher_is_better;
      floor = Some 1e6; gate_vs_baseline = false; requires = None };
    { metric = "cohort_equals_engine"; dir = Higher_is_better;
      floor = Some 1.0; gate_vs_baseline = false; requires = None };
    { metric = "cohort_speedup_over_engine"; dir = Higher_is_better;
      floor = Some 2.0; gate_vs_baseline = false; requires = None };
    { metric = "sweep_cost_gap1024_over_gap16"; dir = Lower_is_better;
      floor = Some 3.0; gate_vs_baseline = false; requires = None };
  ]

(* Multichannel floors come from the E24 acceptance criteria: four
   channels must serve >= 3x the files one channel serves (capacity
   scaling is the whole point of sharding), every sharded design must
   certify through Shardcheck (per-channel witnesses, cover,
   disjointness), and the K = 1 design must be byte-identical to the
   single-channel pipeline. All three are slot-domain deterministic, so
   they gate identically on any runner; raw clients/sec is reported in
   the artifact but never gated. One request's cost must not follow the
   fleet: a one-request Multi.run on a 768-file design may cost at most
   3x the same request on a 32-file design. Nor may designing a file:
   Shard.design's mean cost per file on 12 288 files over 64 channels
   may be at most 1.5x its cost on 768 files over 4 channels (192 files
   a channel in both): a placement that scans all K channels read
   1.77-2.11 here. Pure structure, like the sched memory ratio, so no
   baseline comparison. *)
let multichannel_checks =
  [
    { metric = "aggregate_files_k4_over_k1"; dir = Higher_is_better;
      floor = Some 3.0; gate_vs_baseline = true; requires = None };
    { metric = "shard_coverage_ok"; dir = Higher_is_better;
      floor = Some 1.0; gate_vs_baseline = false; requires = None };
    { metric = "k1_identity_ok"; dir = Higher_is_better;
      floor = Some 1.0; gate_vs_baseline = false; requires = None };
    { metric = "multi_request_cost_n768_over_n32"; dir = Lower_is_better;
      floor = Some 3.0; gate_vs_baseline = false; requires = None };
    { metric = "design_cost_per_file_n12288_over_n768";
      dir = Lower_is_better; floor = Some 1.5; gate_vs_baseline = false;
      requires = None };
  ]

let usage () =
  prerr_endline
    "usage: bench_gate --kind sched|codec|chaos|cohort|multichannel --fresh F \
     --baseline B --summary OUT.md [--append] [--tolerance R] \
     [--inject-slowdown F]";
  exit 2

let parse_args () =
  let kind = ref "" and fresh = ref "" and baseline = ref "" in
  let summary = ref "" and append = ref false in
  let tolerance = ref 1.8 and slowdown = ref 1.0 in
  let rec go = function
    | [] -> ()
    | "--kind" :: v :: rest -> kind := v; go rest
    | "--fresh" :: v :: rest -> fresh := v; go rest
    | "--baseline" :: v :: rest -> baseline := v; go rest
    | "--summary" :: v :: rest -> summary := v; go rest
    | "--append" :: rest -> append := true; go rest
    | "--tolerance" :: v :: rest -> tolerance := float_of_string v; go rest
    | "--inject-slowdown" :: v :: rest -> slowdown := float_of_string v; go rest
    | a :: _ -> Printf.eprintf "bench_gate: unknown argument %s\n" a; usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !kind = "" || !fresh = "" || !baseline = "" || !summary = "" then usage ();
  (!kind, !fresh, !baseline, !summary, !append, !tolerance, !slowdown)

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Printf.eprintf "bench_gate: %s: %s\n" path e; exit 2

let get_metric path j name =
  match Json.get_float name j with
  | Ok v -> v
  | Error _ ->
      Printf.eprintf "bench_gate: %s: missing headline metric %s\n" path name;
      exit 2

type row = {
  name : string;
  fresh_v : float;
  base_v : float;
  bound : float; (* the effective gate the fresh value is held to *)
  better : string; (* "higher" | "lower" *)
  ok : bool;
  skipped : bool; (* the runner cannot measure this metric; not enforced *)
}

let () =
  let kind, fresh_p, base_p, summary_p, append, tol, slowdown = parse_args () in
  let checks =
    match kind with
    | "sched" -> sched_checks
    | "codec" -> codec_checks
    | "chaos" -> chaos_checks
    | "cohort" -> cohort_checks
    | "multichannel" -> multichannel_checks
    | k -> Printf.eprintf "bench_gate: unknown kind %s\n" k; usage ()
  in
  let fresh = load fresh_p and base = load base_p in
  let rows =
    List.map
      (fun c ->
        let fv0 = get_metric fresh_p fresh c.metric in
        let bv = get_metric base_p base c.metric in
        let skipped =
          match c.requires with
          | None -> false
          | Some flag -> (
              (* Absent flag = old artifact = cannot vouch for the
                 capability; skip rather than fail spuriously. *)
              match Json.get_float flag fresh with
              | Ok v -> v = 0.0
              | Error _ -> true)
        in
        let fv =
          match c.dir with
          | Higher_is_better -> fv0 /. slowdown
          | Lower_is_better -> fv0 *. slowdown
        in
        match c.dir with
        | Higher_is_better ->
            (* Must clear the baseline within tolerance, and any floor. *)
            let bound =
              let vs_base = if c.gate_vs_baseline then bv /. tol else 0.0 in
              Float.max vs_base (Option.value c.floor ~default:0.0)
            in
            { name = c.metric; fresh_v = fv; base_v = bv; bound;
              better = "higher"; ok = skipped || fv >= bound; skipped }
        | Lower_is_better ->
            let bound =
              let vs_base =
                if c.gate_vs_baseline then bv *. tol else infinity
              in
              Float.min vs_base (Option.value c.floor ~default:infinity)
            in
            { name = c.metric; fresh_v = fv; base_v = bv; bound;
              better = "lower"; ok = skipped || fv <= bound; skipped })
      checks
  in
  let failed = List.filter (fun r -> not r.ok) rows in
  (* Markdown summary (uploaded as a CI artifact), via the reporting
     glue shared with pindisk-lint. *)
  Summary.with_summary ~path:summary_p ~append ~title:"Benchmark gate"
    (fun oc ->
      Printf.fprintf oc "## %s (%s vs %s, tolerance %.2fx%s)\n\n" kind fresh_p
        base_p tol
        (if slowdown <> 1.0 then
           Printf.sprintf ", injected slowdown %.2fx" slowdown
         else "");
      Summary.table oc
        ~header:[ "metric"; "fresh"; "baseline"; "gate"; "verdict" ]
        (List.map
           (fun r ->
             [
               r.name;
               Printf.sprintf "%.2f" r.fresh_v;
               Printf.sprintf "%.2f" r.base_v;
               Printf.sprintf "%s %.2f"
                 (if r.better = "higher" then ">=" else "<=")
                 r.bound;
               (if r.skipped then "skip (runner lacks capability)"
                else if r.ok then "pass"
                else "**FAIL**");
             ])
           rows));
  List.iter
    (fun r ->
      Printf.printf "bench_gate: %-45s fresh %8.2f  baseline %8.2f  gate %s %.2f  %s\n"
        r.name r.fresh_v r.base_v
        (if r.better = "higher" then ">=" else "<=")
        r.bound
        (if r.skipped then "skip" else if r.ok then "pass" else "FAIL"))
    rows;
  Summary.conclude ~tool:"bench_gate" ~subject:kind
    ~failures:(List.length failed) ~total:(List.length rows) ~noun:"metrics"
