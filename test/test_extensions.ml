(* Tests for the broadcast-disk ecosystem extensions: the classic
   multi-disk baseline, client cache policies, air indexing and update
   dissemination / staleness. *)

module Program = Pindisk.Program
module Multidisk = Pindisk.Multidisk
module Cache = Pindisk_sim.Cache
module Indexing = Pindisk_sim.Indexing
module Fault = Pindisk_sim.Fault
module Staleness = Pindisk_rtdb.Staleness
module Schedule = Pindisk_pinwheel.Schedule

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Multidisk                                                           *)
(* ------------------------------------------------------------------ *)

let farm () =
  Multidisk.program
    [
      { Multidisk.frequency = 4; files = [ (0, 2) ] };
      { Multidisk.frequency = 2; files = [ (1, 3) ] };
      { Multidisk.frequency = 1; files = [ (2, 4); (3, 1) ] };
    ]

let test_multidisk_frequencies () =
  let p = farm () in
  (* Hot file appears frequency * blocks times per major cycle. *)
  check_int "hot file 0: 4 * 2" 8 (Program.occurrences_per_period p 0);
  check_int "file 1: 2 * 3" 6 (Program.occurrences_per_period p 1);
  check_int "cold file 2: 1 * 4" 4 (Program.occurrences_per_period p 2);
  check_int "cold file 3: 1 * 1" 1 (Program.occurrences_per_period p 3)

let test_multidisk_block_cycling () =
  (* Every occurrence stream must follow the k mod m discipline (checked
     by of_layout internally); data cycle = period for plain disks. *)
  let p = farm () in
  check_int "data cycle = period" (Program.period p) (Program.data_cycle p)

let test_multidisk_hot_faster () =
  let p = farm () in
  let e f = Option.get (Multidisk.expected_delay p f) in
  check_bool "hot beats warm" true (e 0 < e 1);
  check_bool "warm beats cold" true (e 1 < e 2)

let test_multidisk_worst_case () =
  let p = farm () in
  (* Non-real-time construction: cold files' worst case is the full major
     cycle -- exactly the gap pinwheel programs close. *)
  check_int "cold worst case = period" (Program.period p)
    (Option.get (Multidisk.worst_case_retrieval_error_free p 2))

let test_multidisk_single_disk_is_flat_like () =
  let p = Multidisk.program [ { Multidisk.frequency = 1; files = [ (0, 3); (1, 2) ] } ] in
  check_int "period" 5 (Program.period p);
  check_int "f0 occurrences" 3 (Program.occurrences_per_period p 0)

let test_multidisk_validation () =
  Alcotest.check_raises "non-dividing frequency"
    (Invalid_argument "Multidisk.program: frequency 3 does not divide the maximum 4")
    (fun () ->
      ignore
        (Multidisk.program
           [
             { Multidisk.frequency = 4; files = [ (0, 1) ] };
             { Multidisk.frequency = 3; files = [ (1, 1) ] };
           ]));
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Multidisk.program: duplicate file ids") (fun () ->
      ignore
        (Multidisk.program
           [
             { Multidisk.frequency = 2; files = [ (0, 1) ] };
             { Multidisk.frequency = 1; files = [ (0, 1) ] };
           ]))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

(* A page-granularity multi-disk: page 0 hot on air, pages 4.. cold. *)
let page_program ~hot_on_air =
  Multidisk.program
    (if hot_on_air then
       [
         { Multidisk.frequency = 4; files = [ (0, 1); (1, 1) ] };
         { Multidisk.frequency = 1; files = List.init 6 (fun i -> (i + 2, 1)) };
       ]
     else
       (* Mismatched: the client-hot pages are broadcast cold. *)
       [
         { Multidisk.frequency = 4; files = [ (6, 1); (7, 1) ] };
         { Multidisk.frequency = 1; files = List.init 6 (fun i -> (i, 1)) };
       ])

let test_zipf_weights () =
  let w = Cache.zipf_weights ~n:4 ~theta:1.0 in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 w);
  check_bool "decreasing" true (w.(0) > w.(1) && w.(1) > w.(2));
  let flat = Cache.zipf_weights ~n:4 ~theta:0.0 in
  Alcotest.(check (float 1e-9)) "theta 0 uniform" 0.25 flat.(2)

let test_cache_bigger_is_better () =
  let program = page_program ~hot_on_air:false in
  let run cache_slots =
    Cache.simulate ~program ~cache_slots ~policy:Cache.Lru ~theta:0.95
      ~accesses:4000 ~seed:5 ()
  in
  let small = run 1 and big = run 6 in
  check_bool "more cache, more hits" true
    (Cache.hit_ratio big > Cache.hit_ratio small);
  check_bool "more cache, less latency" true
    (big.Cache.mean_latency <= small.Cache.mean_latency)

let test_cache_pix_beats_lru_on_mismatch () =
  (* The SIGMOD'95 signature result: when client-hot pages are broadcast
     rarely, PIX (which caches hot-but-rare pages) beats LRU. *)
  let program = page_program ~hot_on_air:false in
  let run policy =
    Cache.simulate ~program ~cache_slots:3 ~policy ~theta:0.95 ~accesses:6000
      ~seed:11 ()
  in
  let pix = run Cache.Pix and lru = run Cache.Lru in
  check_bool "PIX latency <= LRU latency" true
    (pix.Cache.mean_latency <= lru.Cache.mean_latency)

let test_cache_zero_slots () =
  let program = page_program ~hot_on_air:true in
  let s =
    Cache.simulate ~program ~cache_slots:0 ~policy:Cache.Lfu ~theta:1.0
      ~accesses:500 ~seed:2 ()
  in
  check_int "no cache, no hits" 0 s.Cache.hits

let test_cache_rejects_multiblock () =
  let p = Program.flat [ (0, 2); (1, 1) ] in
  Alcotest.check_raises "page-granularity only"
    (Invalid_argument "Cache.simulate: page-granularity programs only")
    (fun () ->
      ignore
        (Cache.simulate ~program:p ~cache_slots:1 ~policy:Cache.Lru ~theta:1.0
           ~accesses:10 ~seed:0 ()))

let test_cache_deterministic () =
  let program = page_program ~hot_on_air:true in
  let run () =
    Cache.simulate ~program ~cache_slots:2 ~policy:Cache.Pix ~theta:0.8
      ~accesses:1000 ~seed:9 ()
  in
  check_bool "same seed same stats" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Indexing                                                            *)
(* ------------------------------------------------------------------ *)

let base_program () = Program.flat [ (0, 2); (1, 3); (2, 5); (3, 2) ]

let test_with_index_layout () =
  let p = base_program () in
  let indexed, idx = Indexing.with_index p ~copies:3 ~index_slots:2 in
  check_int "index id above files" 4 idx;
  check_int "period grows by copies * slots" (Program.period p + 6)
    (Program.period indexed);
  check_int "index occurrences" 6 (Program.occurrences_per_period indexed idx);
  (* Data slots preserved in order. *)
  List.iter
    (fun f ->
      check_int "occurrences preserved"
        (Program.occurrences_per_period p f)
        (Program.occurrences_per_period indexed f))
    (Program.files p)

let test_index_cuts_tuning_time () =
  let p = base_program () in
  let indexed, idx = Indexing.with_index p ~copies:4 ~index_slots:1 in
  let plain = Indexing.self_identifying_metrics p ~file:2 ~needed:5 in
  let smart = Indexing.indexed_metrics indexed ~index_file:idx ~index_slots:1 ~file:2 ~needed:5 in
  (* Indexing trades a slightly longer access time for far less awake
     time. *)
  check_bool "tuning shrinks" true
    (smart.Indexing.tuning_time < plain.Indexing.tuning_time /. 1.5);
  check_bool "access grows but boundedly" true
    (smart.Indexing.access_time < 2.0 *. plain.Indexing.access_time);
  (* Self-identifying: tuning = access by definition. *)
  Alcotest.(check (float 1e-9)) "plain: tuning = access"
    plain.Indexing.access_time plain.Indexing.tuning_time

let test_index_more_copies_faster_access () =
  let p = base_program () in
  let i1, idx1 = Indexing.with_index p ~copies:1 ~index_slots:1 in
  let i4, idx4 = Indexing.with_index p ~copies:4 ~index_slots:1 in
  let m1 = Indexing.indexed_metrics i1 ~index_file:idx1 ~index_slots:1 ~file:0 ~needed:2 in
  let m4 = Indexing.indexed_metrics i4 ~index_file:idx4 ~index_slots:1 ~file:0 ~needed:2 in
  (* More index copies -> shorter wait for the next index. *)
  check_bool "4 copies beat 1 copy on access" true
    (m4.Indexing.access_time < m1.Indexing.access_time)

let test_indexed_lossy_matches_clean_at_zero_loss () =
  let p = base_program () in
  let indexed, idx = Indexing.with_index p ~copies:4 ~index_slots:1 in
  let clean = Indexing.indexed_metrics indexed ~index_file:idx ~index_slots:1 ~file:2 ~needed:5 in
  (* At zero loss, averaging the lossy path over all starts must agree
     with the analytic metrics. *)
  let cycle = Program.data_cycle indexed in
  let acc = ref 0.0 and tun = ref 0.0 in
  for start = 0 to cycle - 1 do
    match
      Indexing.indexed_retrieve_lossy indexed ~index_file:idx ~index_slots:1
        ~file:2 ~needed:5 ~start ~fault:(Pindisk_sim.Fault.none ())
    with
    | Some m ->
        acc := !acc +. m.Indexing.access_time;
        tun := !tun +. m.Indexing.tuning_time
    | None -> Alcotest.fail "fault-free lossy path must complete"
  done;
  let n = float_of_int cycle in
  Alcotest.(check (float 1e-6)) "access agrees" clean.Indexing.access_time (!acc /. n);
  Alcotest.(check (float 1e-6)) "tuning agrees" clean.Indexing.tuning_time (!tun /. n)

let test_indexed_lossy_index_loss_hurts_access () =
  let p = base_program () in
  let indexed, idx = Indexing.with_index p ~copies:2 ~index_slots:1 in
  (* Script a loss exactly on the first index slot the client waits for:
     access time must exceed the fault-free run from the same start. *)
  let clean =
    Option.get
      (Indexing.indexed_retrieve_lossy indexed ~index_file:idx ~index_slots:1
         ~file:0 ~needed:2 ~start:1 ~fault:(Pindisk_sim.Fault.none ()))
  in
  (* Find the first index slot at/after slot 2 and ruin it. *)
  let cycle = Program.data_cycle indexed in
  let first_index =
    let rec go t =
      if t > 2 * cycle then Alcotest.fail "no index found"
      else
        match Program.block_at indexed t with
        | Some (f, 0) when f = idx -> t
        | _ -> go (t + 1)
    in
    go 2
  in
  let lossy =
    Option.get
      (Indexing.indexed_retrieve_lossy indexed ~index_file:idx ~index_slots:1
         ~file:0 ~needed:2 ~start:1
         ~fault:(Pindisk_sim.Fault.deterministic (fun t -> t = first_index)))
  in
  check_bool "access strictly worse" true
    (lossy.Indexing.access_time > clean.Indexing.access_time);
  check_bool "tuning grows too" true
    (lossy.Indexing.tuning_time >= clean.Indexing.tuning_time +. 1.0)

let test_with_index_validation () =
  let p = base_program () in
  Alcotest.check_raises "copies must divide period"
    (Invalid_argument "Indexing.with_index: copies must divide the period")
    (fun () -> ignore (Indexing.with_index p ~copies:5 ~index_slots:1))

(* ------------------------------------------------------------------ *)
(* Staleness                                                           *)
(* ------------------------------------------------------------------ *)

let toy_ida () =
  Program.of_layout
    [ (0, 0); (1, 0); (0, 1); (0, 2); (1, 1); (0, 3); (1, 2); (0, 4) ]
    ~capacities:[ (0, 10); (1, 6) ]

let test_staleness_slow_updates () =
  (* Updates much slower than retrieval: no restarts, full consistency. *)
  let p = toy_ida () in
  match
    Staleness.retrieve ~program:p ~file:0 ~needed:5 ~update_period:1000 ~start:0
  with
  | Some o ->
      check_int "no restarts" 0 o.Staleness.restarts;
      check_int "latency as error-free" 8 o.Staleness.latency
  | None -> Alcotest.fail "must complete"

let test_staleness_restart_on_version_change () =
  (* Updates every period: a client spanning a boundary restarts. *)
  let p = toy_ida () in
  match
    Staleness.retrieve ~program:p ~file:0 ~needed:5 ~update_period:8 ~start:4
  with
  | Some o ->
      check_bool "restarted at the boundary" true (o.Staleness.restarts >= 1);
      check_bool "age below one period" true (o.Staleness.age_at_completion <= 8)
  | None -> Alcotest.fail "must complete"

let test_staleness_starvation () =
  (* Versions take effect at period boundaries, so any retrieval that
     must span periods restarts whenever updates arrive every period:
     file 0 here has 2 occurrences per 3-slot period but needs 3 distinct
     blocks, so with update_period = 3 every collection dies at the next
     boundary -- total starvation. *)
  let p =
    Program.of_layout [ (0, 0); (0, 1); (1, 0) ] ~capacities:[ (0, 6); (1, 1) ]
  in
  let s =
    Staleness.sweep ~program:p ~file:0 ~needed:3 ~update_period:3 ~avi:10
  in
  check_int "everyone starves" s.Staleness.trials s.Staleness.starved;
  (* Slowing updates to two periods ends the starvation. *)
  let s' =
    Staleness.sweep ~program:p ~file:0 ~needed:3 ~update_period:6 ~avi:10
  in
  check_int "no starvation at half rate" 0 s'.Staleness.starved

let test_staleness_sweep_consistency_monotone () =
  let p = toy_ida () in
  let ratio avi =
    (Staleness.sweep ~program:p ~file:0 ~needed:5 ~update_period:20 ~avi)
      .Staleness.consistency_ratio
  in
  check_bool "larger avi, more consistent" true (ratio 40 >= ratio 10);
  Alcotest.(check (float 1e-9)) "huge avi always consistent" 1.0 (ratio 10_000)

let test_staleness_large_start () =
  (* Tune-in deep into the broadcast behaves like the equivalent phase. *)
  let p = toy_ida () in
  let at start =
    Option.get
      (Staleness.retrieve ~program:p ~file:0 ~needed:5 ~update_period:16 ~start)
  in
  let near = at 3 and far = at (3 + (16 * 50)) in
  check_int "same latency" near.Staleness.latency far.Staleness.latency;
  check_int "same age" near.Staleness.age_at_completion far.Staleness.age_at_completion

let test_staleness_age_bounded_by_update_period_plus_latency () =
  let p = toy_ida () in
  let s = Staleness.sweep ~program:p ~file:0 ~needed:5 ~update_period:16 ~avi:32 in
  check_bool "max age <= update_period + period + max latency" true
    (s.Staleness.max_age <= 16 + 8 + s.Staleness.max_latency)

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

module Snapshot = Pindisk_rtdb.Snapshot

let snapshot_reads =
  [ { Snapshot.file = 0; needed = 5 }; { Snapshot.file = 1; needed = 3 } ]

let test_snapshot_slow_updates () =
  (* Updates far slower than the transaction: single epoch, no restarts,
     elapsed = plain transactional worst for this phase. *)
  let p = toy_ida () in
  match
    Snapshot.retrieve ~program:p ~reads:snapshot_reads ~update_period:1000
      ~start:0
  with
  | Some o ->
      check_int "no restarts" 0 o.Snapshot.restarts;
      check_int "epoch 0" 0 o.Snapshot.epoch;
      check_int "elapsed 8" 8 o.Snapshot.elapsed
  | None -> Alcotest.fail "must commit"

let test_snapshot_epoch_agreement () =
  (* Updates every other period: a transaction spanning a boundary must
     re-read the items stranded in the older epoch and commit in one
     epoch anyway. *)
  let p = toy_ida () in
  for start = 0 to 15 do
    match
      Snapshot.retrieve ~program:p ~reads:snapshot_reads ~update_period:16
        ~start
    with
    | Some o -> check_bool "epoch non-negative" true (o.Snapshot.epoch >= 0)
    | None -> Alcotest.failf "starved from %d" start
  done

let test_snapshot_restarts_happen () =
  let p = toy_ida () in
  let s =
    Snapshot.sweep ~program:p ~reads:snapshot_reads ~update_period:8
  in
  (* Epoch flips every period; transactions that straddle a boundary must
     restart at least sometimes. *)
  check_bool "some restarts" true (s.Snapshot.mean_restarts > 0.0);
  check_int "none starved (both items fit in one period)" 0 s.Snapshot.starved

let test_snapshot_starvation () =
  (* An item needing two periods to collect + epoch flip every period =
     unserviceable snapshot. *)
  let p =
    Program.of_layout [ (0, 0); (0, 1); (1, 0) ] ~capacities:[ (0, 6); (1, 1) ]
  in
  let s =
    Snapshot.sweep ~program:p
      ~reads:[ { Snapshot.file = 0; needed = 3 }; { Snapshot.file = 1; needed = 1 } ]
      ~update_period:3
  in
  check_int "all starved" s.Snapshot.trials s.Snapshot.starved

let test_snapshot_validation () =
  let p = toy_ida () in
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Snapshot.retrieve: duplicate files") (fun () ->
      ignore
        (Snapshot.retrieve ~program:p
           ~reads:[ { Snapshot.file = 0; needed = 1 }; { Snapshot.file = 0; needed = 2 } ]
           ~update_period:10 ~start:0))

let () =
  Alcotest.run "extensions"
    [
      ( "multidisk",
        [
          Alcotest.test_case "frequencies" `Quick test_multidisk_frequencies;
          Alcotest.test_case "block cycling" `Quick test_multidisk_block_cycling;
          Alcotest.test_case "hot is faster" `Quick test_multidisk_hot_faster;
          Alcotest.test_case "cold worst case" `Quick test_multidisk_worst_case;
          Alcotest.test_case "single disk" `Quick test_multidisk_single_disk_is_flat_like;
          Alcotest.test_case "validation" `Quick test_multidisk_validation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
          Alcotest.test_case "bigger cache is better" `Quick test_cache_bigger_is_better;
          Alcotest.test_case "PIX beats LRU on mismatch" `Quick
            test_cache_pix_beats_lru_on_mismatch;
          Alcotest.test_case "zero slots" `Quick test_cache_zero_slots;
          Alcotest.test_case "page granularity enforced" `Quick test_cache_rejects_multiblock;
          Alcotest.test_case "deterministic" `Quick test_cache_deterministic;
        ] );
      ( "indexing",
        [
          Alcotest.test_case "with_index layout" `Quick test_with_index_layout;
          Alcotest.test_case "tuning time shrinks" `Quick test_index_cuts_tuning_time;
          Alcotest.test_case "more copies, faster access" `Quick
            test_index_more_copies_faster_access;
          Alcotest.test_case "lossy path matches clean at p=0" `Quick
            test_indexed_lossy_matches_clean_at_zero_loss;
          Alcotest.test_case "index loss hurts access" `Quick
            test_indexed_lossy_index_loss_hurts_access;
          Alcotest.test_case "validation" `Quick test_with_index_validation;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "slow updates" `Quick test_snapshot_slow_updates;
          Alcotest.test_case "epoch agreement" `Quick test_snapshot_epoch_agreement;
          Alcotest.test_case "restarts happen" `Quick test_snapshot_restarts_happen;
          Alcotest.test_case "starvation" `Quick test_snapshot_starvation;
          Alcotest.test_case "validation" `Quick test_snapshot_validation;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "slow updates" `Quick test_staleness_slow_updates;
          Alcotest.test_case "restart on version change" `Quick
            test_staleness_restart_on_version_change;
          Alcotest.test_case "starvation" `Quick test_staleness_starvation;
          Alcotest.test_case "consistency monotone in avi" `Quick
            test_staleness_sweep_consistency_monotone;
          Alcotest.test_case "large start phase-equivalent" `Quick
            test_staleness_large_start;
          Alcotest.test_case "age bound" `Quick
            test_staleness_age_bounded_by_update_period_plus_latency;
        ] );
    ]
