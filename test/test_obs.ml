(* The observability layer: sharded registry, log-bucketed histograms,
   ring-buffer tracer, snapshots and their JSON round-trip, plus the
   cross-layer guarantees the instrumentation relies on — parallel
   counter exactness under the domain pool and byte-identical pipeline
   output with metrics on vs. off. *)

module Obs = Pindisk_obs
module Control = Obs.Control
module Registry = Obs.Registry
module Histogram = Obs.Histogram
module Trace = Obs.Trace
module Snapshot = Obs.Snapshot
module Pool = Pindisk_util.Pool
module Stats = Pindisk_util.Stats
module Ida = Pindisk_ida.Ida
module Program = Pindisk.Program
module Engine = Pindisk_sim.Engine
module Workload = Pindisk_sim.Workload
module Fault = Pindisk_sim.Fault
module Json = Pindisk_check.Json
module Metrics = Pindisk_check.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Every test owns the global registry/tracer for its duration: reset
   first, and force the flag rather than inheriting PINDISK_METRICS. *)
let with_metrics enabled f =
  Control.with_enabled enabled (fun () ->
      Snapshot.reset ();
      f ())

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_interning () =
  with_metrics true @@ fun () ->
  let a = Registry.counter "test.interned" in
  let b = Registry.counter "test.interned" in
  Registry.incr a;
  Registry.add b 2;
  check_int "one counter behind both handles" 3 (Registry.counter_value a);
  check_int "same value through either" 3 (Registry.counter_value b);
  let g = Registry.gauge "test.gauge" in
  Registry.set g 7;
  Registry.set (Registry.gauge "test.gauge") 9;
  check_int "gauge last write wins" 9 (Registry.gauge_value g);
  check_bool "listed under its name" true
    (List.assoc_opt "test.interned" (Registry.counters ()) = Some 3);
  let names = List.map fst (Registry.counters ()) in
  check_bool "enumeration sorted" true (List.sort compare names = names)

let test_registry_reset_in_place () =
  with_metrics true @@ fun () ->
  let c = Registry.counter "test.reset" in
  Registry.add c 41;
  Registry.reset ();
  check_int "zeroed" 0 (Registry.counter_value c);
  Registry.incr c;
  check_int "old handle still live" 1 (Registry.counter_value c)

(* Sharded merge: increments racing from every pool domain are never
   lost — the sum over shards is exactly the number of increments. *)
let test_registry_sharded_sum () =
  with_metrics true @@ fun () ->
  let c = Registry.counter "test.sharded" in
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let n = 10_000 in
      Pool.parallel_for pool ~n (fun i ->
          Registry.incr c;
          if i land 1 = 0 then Registry.add c 2);
      check_int "merged sum exact" (n + (2 * (n / 2))) (Registry.counter_value c))

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let interesting_values =
  [ min_int; -1000; -1; 0; 1; 2; 3; 5; 8; 22; 1023; 1024; 1025; 1 lsl 20;
    (1 lsl 40) + 17; max_int ]

let test_bucket_geometry () =
  List.iter
    (fun v ->
      let b = Histogram.bucket_of v in
      let lo, hi = Histogram.bucket_bounds b in
      check_bool (Printf.sprintf "value %d inside its bucket" v) true
        (lo <= v && v <= hi))
    interesting_values;
  let sorted = List.sort compare interesting_values in
  let bs = List.map Histogram.bucket_of sorted in
  check_bool "bucket_of monotone" true (List.sort compare bs = bs);
  check_int "non-positive bucket" 0 (Histogram.bucket_of (-5));
  Alcotest.check_raises "bucket_bounds range" (Invalid_argument "Histogram.bucket_bounds")
    (fun () -> ignore (Histogram.bucket_bounds Histogram.bucket_count))

let test_histogram_exact_stats () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 4; -2; 100; 4; 0 ];
  check_int "count" 5 (Histogram.count h);
  check_int "sum" 106 (Histogram.sum h);
  check_int "min" (-2) (Histogram.min_value h);
  check_int "max" 100 (Histogram.max_value h);
  Histogram.reset h;
  check_int "reset count" 0 (Histogram.count h)

(* A histogram's snapshot record, as [Snapshot.take] captures it. *)
let snap_hist h =
  {
    Snapshot.count = Histogram.count h;
    sum = Histogram.sum h;
    lo = Histogram.min_value h;
    hi = Histogram.max_value h;
    buckets = Histogram.buckets h;
  }

(* The exact nearest-rank quantile the estimator is specified against. *)
let exact_quantile samples p =
  let arr = Array.of_list samples in
  Array.sort compare arr;
  let count = Array.length arr in
  let r =
    min (count - 1)
      (max 0 (int_of_float (ceil (p *. float_of_int count)) - 1))
  in
  arr.(r)

let sample_gen =
  QCheck2.Gen.(
    list_size (int_range 1 200)
      (oneof
         [
           int_range (-100) 100;
           int_range 0 1_000_000;
           map (fun e -> (1 lsl e) + Stdlib.min e 3) (int_range 0 55);
           int;
         ]))

(* Every estimated quantile lands in the same bucket as the exact
   sorted-sample quantile — i.e. within one bucket's relative-error
   bound (~sqrt 2) — and, being the bucket's upper bound, never below. *)
let prop_quantile_within_bucket =
  QCheck2.Test.make ~name:"quantile estimate within one bucket of exact"
    ~count:300 sample_gen (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.observe h) samples;
      List.for_all
        (fun p ->
          let exact = exact_quantile samples p in
          let est = Snapshot.quantile (snap_hist h) p in
          Histogram.bucket_of est = Histogram.bucket_of exact && est >= exact)
        [ 0.0; 0.01; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ])

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let with_ring cap f =
  with_metrics true @@ fun () ->
  Trace.set_capacity cap;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_capacity 1024;
      Trace.reset ())
    f

let test_trace_ring_wraparound () =
  with_ring 8 @@ fun () ->
  for i = 1 to 20 do
    Trace.record (Trace.Slot { slot = i; file = i mod 3; index = i })
  done;
  check_int "all records counted" 20 (Trace.recorded ());
  check_int "ring capacity" 8 (Trace.capacity ());
  let events = Trace.events () in
  check_int "buffer holds last capacity events" 8 (List.length events);
  List.iteri
    (fun j e ->
      check_int "ticks contiguous, oldest first" (13 + j) e.Trace.tick;
      match e.Trace.span with
      | Trace.Slot { slot; _ } -> check_int "payload follows tick" (13 + j) slot
      | _ -> Alcotest.fail "unexpected span")
    events

let test_trace_below_capacity () =
  with_ring 16 @@ fun () ->
  List.iter Trace.record
    [
      Trace.Fault_burst { slot = 5; length = 3 };
      Trace.Reconstruct { file = 1; pieces = 4; bytes = 200 };
      Trace.Hot_swap { slot = 9; cause = "test" };
    ];
  let events = Trace.events () in
  check_int "no phantom events" 3 (List.length events);
  check_int "ticks start at one" 1 (List.hd events).Trace.tick;
  Trace.reset ();
  check_int "reset clears count" 0 (Trace.recorded ());
  check_int "reset clears buffer" 0 (List.length (Trace.events ()))

let test_trace_disabled_is_noop () =
  with_metrics false @@ fun () ->
  Trace.record (Trace.Hot_swap { slot = 1; cause = "ignored" });
  check_int "nothing recorded while disabled" 0 (Trace.recorded ())

let test_control_restores_on_exception () =
  Control.set_enabled false;
  (try Control.with_enabled true (fun () -> failwith "boom") with
  | Failure _ -> ());
  check_bool "flag restored after raise" false (Control.enabled ())

(* ------------------------------------------------------------------ *)
(* Snapshot: capture, diff, JSON round-trip                            *)
(* ------------------------------------------------------------------ *)

let counter_of snap name =
  Option.value (List.assoc_opt name snap.Snapshot.counters) ~default:0

let hist_of snap name = List.assoc_opt name snap.Snapshot.histograms

let test_snapshot_quantiles_match_histogram () =
  with_metrics true @@ fun () ->
  let h = Registry.histogram "test.snap.q" in
  List.iter (Histogram.observe h) [ 1; 3; 9; 27; 81; 243; 729 ];
  let s = Snapshot.take () in
  match hist_of s "test.snap.q" with
  | None -> Alcotest.fail "histogram not captured"
  | Some sh ->
      List.iter
        (fun p ->
          check_int
            (Printf.sprintf "snapshot quantile p=%.2f" p)
            (Snapshot.quantile (snap_hist h) p)
            (Snapshot.quantile sh p))
        [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

(* A snapshot exercising every field and span type survives
   print -> parse -> print byte-for-byte. *)
let test_snapshot_json_roundtrip () =
  with_metrics true @@ fun () ->
  Registry.add (Registry.counter "test.json.counter") 12;
  Registry.set (Registry.gauge "test.json.gauge") (-3);
  let h = Registry.histogram "test.json.hist" in
  List.iter (Histogram.observe h) [ 0; 1; 7; 7; 1_000_000 ];
  Trace.record (Trace.Slot { slot = 3; file = 1; index = 4 });
  Trace.record (Trace.Fault_burst { slot = 5; length = 2 });
  Trace.record (Trace.Reconstruct { file = 1; pieces = 4; bytes = 4096 });
  Trace.record (Trace.Hot_swap { slot = 8; cause = "loss 0.4 -> \"shed\"" });
  Trace.record (Trace.Crash { slot = 9 });
  Trace.record (Trace.Recover { slot = 11; replayed = 3 });
  let s = Snapshot.take () in
  let str = Json.to_string (Metrics.snapshot_to_json s) in
  match Metrics.snapshot_of_string str with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok s' ->
      check_bool "snapshot survives round-trip" true (s = s');
      check_string "re-rendering is byte-stable" str
        (Json.to_string (Metrics.snapshot_to_json s'))

let test_snapshot_json_rejects () =
  let bad s =
    check_bool
      (Printf.sprintf "rejects %s" (String.sub s 0 (min 40 (String.length s))))
      true
      (Result.is_error (Metrics.snapshot_of_string s))
  in
  bad "{\"schema\": \"other v9\"}";
  bad "{\"schema\": \"pindisk-metrics v1\", \"tick\": 0}";
  bad
    "{\"schema\": \"pindisk-metrics v1\", \"tick\": 0, \"counters\": {}, \
     \"gauges\": {}, \"histograms\": {}, \"events\": [{\"tick\": 1, \
     \"span\": \"martian\"}]}";
  bad "not json at all"

(* ------------------------------------------------------------------ *)
(* Cross-layer: parallel exactness and metrics-off determinism         *)
(* ------------------------------------------------------------------ *)

let codec_counters snap =
  List.filter
    (fun (name, _) ->
      String.length name >= 4
      && (String.sub name 0 4 = "ida." || String.sub name 0 6 = "gf256."))
    snap.Snapshot.counters

(* The instrumented counters inside [Ida.disperse] are bumped from
   whichever domain runs each encode group; the sharded registry must
   report exactly the sequential totals, and the pieces themselves must
   be byte-identical. *)
let test_ida_parallel_counters_match_sequential () =
  with_metrics true @@ fun () ->
  let file = Bytes.init 262_144 (fun i -> Char.chr ((i * 131) land 0xff)) in
  let ida = Ida.create ~m:8 in
  let seq = Ida.disperse ida ~n:12 file in
  let seq_counts = codec_counters (Snapshot.take ()) in
  Snapshot.reset ();
  let pool = Pool.create ~domains:4 () in
  let par =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Ida.disperse ~pool ida ~n:12 file)
  in
  let par_snap = Snapshot.take () in
  check_int "same piece count" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i p ->
      check_bool
        (Printf.sprintf "piece %d byte-identical" i)
        true
        (p.Ida.index = par.(i).Ida.index && Bytes.equal p.Ida.data par.(i).Ida.data))
    seq;
  check_bool "codec counters identical across domains" true
    (seq_counts = codec_counters par_snap);
  check_bool "pool actually fanned out" true
    (counter_of par_snap "pool.tasks.fanned" > 0)

module Cohort = Pindisk_sim.Cohort

let cohort_counters snap =
  List.filter
    (fun (name, _) ->
      String.length name >= 7 && String.sub name 0 7 = "cohort.")
    snap.Snapshot.counters

(* Cohort classes shard across pool domains, but the sharded registry
   and the caller-side retirement fold must make the pooled run
   indistinguishable from the 1-domain run: same Engine.result, same
   merged cohort.* counters. *)
let test_cohort_pool_matches_sequential () =
  with_metrics true @@ fun () ->
  let program = Program.of_layout
      [ (0, 0); (1, 0); (0, 1); (0, 2); (1, 1); (0, 3); (1, 2); (0, 4) ]
      ~capacities:[ (0, 10); (1, 6) ]
  in
  let trace =
    Workload.generate ~program ~rate:0.2 ~theta:0.8
      ~needed_of:(fun f -> if f = 0 then 5 else 3)
      ~deadline_of:(fun f -> if f = 0 then 7 else 9)
      ~horizon:1500 ~seed:4
  in
  let fault ~seed = Fault.bernoulli ~p:0.25 ~seed in
  let model =
    Cohort.Burst
      { p_good_to_bad = 0.2; p_bad_to_good = 0.4; loss_good = 0.05;
        loss_bad = 0.5 }
  in
  let classes = Cohort.classes_of_trace ~period:(Program.period program) trace in
  let seq = Cohort.run ~program ~fault ~seed:5 trace in
  let seq_pop = Cohort.run_population ~program ~model ~seed:5 classes in
  let seq_counts = cohort_counters (Snapshot.take ()) in
  Snapshot.reset ();
  let pool = Pool.create ~domains:4 () in
  let par, par_pop =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        ( Cohort.run ~program ~fault ~seed:5 trace,
          Cohort.retire
            (Cohort.population_rows ~pool ~program ~model ~seed:5 ~rest:[]
               classes) ))
  in
  let par_counts = cohort_counters (Snapshot.take ()) in
  check_string "trace-mode run repeats byte-identically"
    (Format.asprintf "%a" Engine.pp_result seq)
    (Format.asprintf "%a" Engine.pp_result par);
  check_string "pooled population byte-identical"
    (Format.asprintf "%a" Engine.pp_result seq_pop)
    (Format.asprintf "%a" Engine.pp_result par_pop);
  check_bool "merged cohort.* counters identical" true
    (seq_counts = par_counts)

let toy_layout =
  [ (0, 0); (1, 0); (0, 1); (0, 2); (1, 1); (0, 3); (1, 2); (0, 4) ]

let toy_program () =
  Program.of_layout toy_layout ~capacities:[ (0, 10); (1, 6) ]

let toy_trace program =
  Workload.generate ~program ~rate:0.2 ~theta:0.8
    ~needed_of:(fun f -> if f = 0 then 5 else 3)
    ~deadline_of:(fun f -> if f = 0 then 7 else 9)
    ~horizon:1500 ~seed:4

let run_engine () =
  let program = toy_program () in
  Engine.run ~program
    ~fault:(fun ~seed -> Fault.bernoulli ~p:0.25 ~seed)
    ~seed:5 (toy_trace program)

(* Instrumentation must not perturb the simulation: the result with
   metrics recording on is identical to the result with it off. *)
let test_engine_deterministic_with_metrics () =
  let off = with_metrics false run_engine in
  let on = with_metrics true run_engine in
  check_string "byte-identical pp_result"
    (Format.asprintf "%a" Engine.pp_result off)
    (Format.asprintf "%a" Engine.pp_result on);
  check_bool "workload has misses to compare" true (off.Engine.missed > 0)

(* The per-file histograms/counters recorded by [Engine.run] reconcile
   exactly with the [file_stats] it returns, and the aggregates with the
   per-file breakdown. *)
let test_engine_obs_reconciles_with_file_stats () =
  with_metrics true @@ fun () ->
  let r = run_engine () in
  let s = Snapshot.take () in
  check_int "engine.requests" r.Engine.requests (counter_of s "engine.requests");
  check_int "engine.completed" r.Engine.completed
    (counter_of s "engine.completed");
  check_int "engine.missed" r.Engine.missed (counter_of s "engine.missed");
  check_int "engine.losses" r.Engine.losses (counter_of s "engine.losses");
  (match hist_of s "engine.wait" with
  | None -> Alcotest.fail "engine.wait histogram missing"
  | Some h ->
      check_int "global wait count = completed" r.Engine.completed
        h.Snapshot.count;
      check_bool "global wait sum = latency total" true
        (float_of_int h.Snapshot.sum = Stats.total r.Engine.latency));
  List.iter
    (fun (f : Engine.file_stats) ->
      let miss_name = Printf.sprintf "engine.miss.%d" f.Engine.file in
      check_int miss_name f.Engine.missed (counter_of s miss_name);
      match hist_of s (Printf.sprintf "engine.wait.%d" f.Engine.file) with
      | None -> check_int "file with no completions" 0 (Stats.count f.Engine.latency)
      | Some h ->
          check_int
            (Printf.sprintf "file %d wait count" f.Engine.file)
            (Stats.count f.Engine.latency)
            h.Snapshot.count;
          check_bool
            (Printf.sprintf "file %d wait sum" f.Engine.file)
            true
            (float_of_int h.Snapshot.sum = Stats.total f.Engine.latency);
          check_bool
            (Printf.sprintf "file %d wait max" f.Engine.file)
            true
            (float_of_int h.Snapshot.hi = Stats.max_value f.Engine.latency))
    r.Engine.per_file;
  let sum_file_miss =
    List.fold_left
      (fun acc (f : Engine.file_stats) -> acc + f.Engine.missed)
      0 r.Engine.per_file
  in
  check_int "per-file misses reconcile with aggregate" r.Engine.missed
    sum_file_miss

let test_pool_fanout_metrics () =
  with_metrics true @@ fun () ->
  let pool = Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.parallel_for pool ~n:10 (fun _ -> ());
      let s = Snapshot.take () in
      check_int "one job" 1 (counter_of s "pool.jobs");
      check_int "all tasks fanned" 10 (counter_of s "pool.tasks.fanned");
      check_int "fan-out gauge records width" (Pool.size pool)
        (Option.value
           (List.assoc_opt "pool.fanout" s.Snapshot.gauges)
           ~default:0);
      (* Fewer tasks than domains: the gauge must report the parallelism
         actually available, not the pool width. *)
      Pool.parallel_for pool ~n:2 (fun _ -> ());
      let s = Snapshot.take () in
      check_int "scarce tasks cap the fan-out gauge" 2
        (Option.value
           (List.assoc_opt "pool.fanout" s.Snapshot.gauges)
           ~default:0);
      Pool.parallel_for pool ~n:1 (fun _ -> ());
      let s = Snapshot.take () in
      check_int "singleton runs inline" 1 (counter_of s "pool.tasks.inline"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "interning" `Quick test_registry_interning;
          Alcotest.test_case "reset in place" `Quick test_registry_reset_in_place;
          Alcotest.test_case "sharded sum across domains" `Quick
            test_registry_sharded_sum;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket geometry" `Quick test_bucket_geometry;
          Alcotest.test_case "exact stats" `Quick test_histogram_exact_stats;
          QCheck_alcotest.to_alcotest prop_quantile_within_bucket;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_trace_ring_wraparound;
          Alcotest.test_case "below capacity" `Quick test_trace_below_capacity;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_trace_disabled_is_noop;
          Alcotest.test_case "with_enabled restores" `Quick
            test_control_restores_on_exception;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "quantiles match histogram" `Quick
            test_snapshot_quantiles_match_histogram;
          Alcotest.test_case "json round-trip" `Quick
            test_snapshot_json_roundtrip;
          Alcotest.test_case "json rejects malformed" `Quick
            test_snapshot_json_rejects;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "ida parallel counters = sequential" `Quick
            test_ida_parallel_counters_match_sequential;
          Alcotest.test_case "cohort pool = sequential" `Quick
            test_cohort_pool_matches_sequential;
          Alcotest.test_case "engine deterministic under metrics" `Quick
            test_engine_deterministic_with_metrics;
          Alcotest.test_case "engine obs reconcile with file_stats" `Quick
            test_engine_obs_reconciles_with_file_stats;
          Alcotest.test_case "pool fan-out metrics" `Quick
            test_pool_fanout_metrics;
        ] );
    ]
