(* Multi-channel sharding: the Channels task partitioner, the Shard
   file-level designer, and (below) the Multi tuner simulation. *)

module P = Pindisk_pinwheel
module Task = P.Task
module Schedule = P.Schedule
module Scheduler = P.Scheduler
module Plan = P.Plan
module Channels = P.Channels
module Gen = P.Gen
module Q = Pindisk_util.Q
module File_spec = Pindisk.File_spec
module Program = Pindisk.Program
module Shard = Pindisk.Shard

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let render_schedule s = Format.asprintf "%a" Schedule.pp s
let render_program p = Format.asprintf "%a" Program.pp p

(* ------------------------------------------------------------------ *)
(* Channels: task-level partitioning                                  *)
(* ------------------------------------------------------------------ *)

let test_channels_k1_identity () =
  (* channels = 1 is the single-channel pipeline, byte for byte. *)
  let sys =
    [ Task.unit ~id:0 ~b:4; Task.unit ~id:1 ~b:8; Task.unit ~id:2 ~b:8 ]
  in
  let t = Channels.plan ~channels:1 sys in
  check_int "one shard" 1 (List.length t.Channels.shards);
  check_bool "nothing shed" true (t.Channels.shed = []);
  let shard = List.hd t.Channels.shards in
  check_bool "original order kept" true (shard.Channels.tasks = sys);
  let single =
    match Scheduler.plan sys with Some p -> p | None -> assert false
  in
  Alcotest.(check string)
    "identical schedule bytes"
    (render_schedule (Plan.to_schedule single))
    (render_schedule (Plan.to_schedule shard.Channels.plan))

let test_channels_partition_covers () =
  let sys = List.init 12 (fun i -> Task.unit ~id:i ~b:(8 + (4 * (i mod 3)))) in
  let assignment, shed = Channels.partition ~channels:3 sys in
  check_bool "nothing shed" true (shed = []);
  (* Every task appears exactly once, and the pairs follow input order. *)
  Alcotest.(check (list int))
    "assignment in input order"
    (List.map (fun (t : Task.t) -> t.Task.id) sys)
    (List.map (fun (_, (t : Task.t)) -> t.Task.id) assignment);
  List.iter
    (fun (c, _) -> check_bool "valid channel" true (c >= 0 && c < 3))
    assignment

let test_channels_plan_shards_verify () =
  let sys = List.init 16 (fun i -> Task.unit ~id:i ~b:(16 + (8 * (i mod 4)))) in
  let t = Channels.plan ~channels:4 sys in
  check_bool "nothing shed" true (t.Channels.shed = []);
  check_int "four shards" 4 (List.length t.Channels.shards);
  List.iter
    (fun (s : Channels.shard) ->
      check_bool
        (Printf.sprintf "channel %d plan verifies" s.Channels.channel)
        true
        (s.Channels.tasks = []
        || P.Verify.satisfies_plan s.Channels.plan s.Channels.tasks))
    t.Channels.shards

let test_channels_sheds_infeasible () =
  (* Three always-hungry tasks on one channel: pc(1,1) twice cannot fit. *)
  let sys = [ Task.unit ~id:0 ~b:1; Task.unit ~id:1 ~b:1; Task.unit ~id:2 ~b:1 ] in
  let t = Channels.plan ~channels:2 sys in
  check_int "one shed" 1 (List.length t.Channels.shed);
  check_bool "shards serve the rest" true
    (List.for_all
       (fun (s : Channels.shard) -> List.length s.Channels.tasks = 1)
       t.Channels.shards)

let test_channels_bad_args () =
  Alcotest.check_raises "channels < 1"
    (Invalid_argument "Channels.partition: channels must be >= 1") (fun () ->
      ignore (Channels.partition ~channels:0 [ Task.unit ~id:0 ~b:2 ]))

(* qcheck: K = 1 plans match the single-channel scheduler byte for byte
   on random schedulable systems. *)
let prop_channels_k1_matches_scheduler =
  QCheck2.Test.make ~name:"channels=1 == Scheduler.plan byte-for-byte"
    ~count:100
    QCheck2.Gen.(pair (int_range 2 12) (int_bound 1_000_000))
    (fun (n, seed) ->
      let sys = Gen.unit_system_with_density ~seed ~n ~max_b:64 ~target:0.5 in
      match Scheduler.plan sys with
      | None -> QCheck2.assume_fail ()
      | Some single ->
          let t = Channels.plan ~channels:1 sys in
          let shard = List.hd t.Channels.shards in
          render_schedule (Plan.to_schedule single)
          = render_schedule (Plan.to_schedule shard.Channels.plan))

let test_channels_no_overflow () =
  (* Total density 0.78, no task above 1/3, and every exact load has a
     denominator dividing lcm = 2.1e14 — but the product of the
     denominators overflows a native int, so sums or comparisons that
     multiply full denominators cannot place these tasks. *)
  let windows =
    [ 43; 48; 41; 47; 47; 5; 42; 29; 13; 43; 24; 27; 19; 10; 27; 23 ]
  in
  let sys = List.mapi (fun id b -> Task.unit ~id ~b) windows in
  let assignment, shed = Channels.partition ~channels:2 sys in
  check_int "nothing shed" 0 (List.length shed);
  check_int "every task placed once" (List.length sys) (List.length assignment);
  let load = Array.make 2 Q.zero in
  List.iter
    (fun (c, t) -> load.(c) <- Q.add load.(c) (Task.density t))
    assignment;
  check_bool "loads sum to the system density" true
    (Q.equal (Q.add load.(0) load.(1)) (Task.system_density sys));
  Array.iter
    (fun l -> check_bool "each shard within 5/6" true (Q.( <= ) l (Q.make 5 6)))
    load

(* qcheck: every task lands on exactly one channel (or is shed), and for
   inputs inside the LPT bound — individual densities <= 1/3, total
   <= K/2 — every shard stays within the Kawamura 5/6 guarantee with
   nothing shed. *)
let prop_channels_partition_balanced =
  QCheck2.Test.make
    ~name:"LPT partition: exact cover, 5/6 bound inside LPT budget"
    ~count:100
    QCheck2.Gen.(triple (int_range 2 6) (int_range 4 24) (int_bound 1_000_000))
    (fun (k, n, seed) ->
      (* Unit tasks with windows >= 3 (density <= 1/3 each), admitted
         only while the running total stays within the K/2 LPT budget. A
         candidate whose exact running total has no native-int
         representation (its reduced denominator passes 2^62) is skipped
         like one over budget: no exact density of that system exists to
         check a bound against. *)
      let st = Random.State.make [| seed |] in
      let budget = Q.make k 2 in
      let sys =
        List.init n (fun i -> Task.unit ~id:i ~b:(3 + Random.State.int st 46))
        |> List.fold_left
             (fun (acc, total) t ->
               match Q.add total (Task.density t) with
               | total' when Q.( <= ) total' budget -> (t :: acc, total')
               | _ -> (acc, total)
               | exception Pindisk_util.Intmath.Overflow -> (acc, total))
             ([], Q.zero)
        |> fst |> List.rev
      in
      QCheck2.assume (sys <> []);
      let assignment, shed = Channels.partition ~channels:k sys in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (c, (t : Task.t)) ->
          if Hashtbl.mem seen t.Task.id then
            QCheck2.Test.fail_report "task on two channels";
          Hashtbl.replace seen t.Task.id c)
        assignment;
      List.iter
        (fun (t : Task.t) ->
          if Hashtbl.mem seen t.Task.id then
            QCheck2.Test.fail_report "shed task also assigned")
        shed;
      if
        List.length assignment + List.length shed <> List.length sys
      then QCheck2.Test.fail_report "partition lost a task";
      (* The LPT bound: max load <= avg + (1 - 1/k) * max item
         <= 1/2 + 1/3 = 5/6 when total <= k/2 and items <= 1/3. *)
      (if
         shed = []
         && Q.( <= ) (Task.system_density sys) (Q.make k 2)
         && List.for_all
              (fun (t : Task.t) -> Q.( <= ) (Task.density t) (Q.make 1 3))
              sys
       then
         let load = Array.make k Q.zero in
         List.iter
           (fun (c, t) -> load.(c) <- Q.add load.(c) (Task.density t))
           assignment;
         Array.iter
           (fun l ->
             if Q.( > ) l (Q.make 5 6) then
               QCheck2.Test.fail_report "shard beyond 5/6 inside LPT budget")
           load);
      true)

(* ------------------------------------------------------------------ *)
(* Shard: file-level designs                                          *)
(* ------------------------------------------------------------------ *)

let specs_small () =
  [
    File_spec.make ~name:"alerts" ~id:0 ~blocks:2 ~latency:8 ~tolerance:1 ();
    File_spec.make ~name:"map" ~id:1 ~blocks:4 ~latency:16 ~tolerance:0 ();
    File_spec.make ~name:"feed" ~id:2 ~blocks:2 ~latency:16 ~tolerance:0 ();
  ]

let test_shard_k1_is_program_pinwheel () =
  let specs = specs_small () in
  let bandwidth = 2 in
  match
    (Shard.design ~channels:1 ~bandwidth specs, Program.pinwheel ~bandwidth specs)
  with
  | Ok t, Some reference ->
      check_int "one channel" 1 (Array.length t.Shard.channels);
      check_bool "nothing shed" true (t.Shard.shed = []);
      Alcotest.(check string)
        "program bytes identical" (render_program reference)
        (render_program t.Shard.channels.(0).Shard.program)
  | Error e, _ -> Alcotest.failf "design failed: %s" e
  | Ok _, None -> Alcotest.fail "reference pipeline failed"

let test_shard_k1_block_at_matches_program () =
  let specs = specs_small () in
  let bandwidth = 2 in
  match
    (Shard.design ~channels:1 ~bandwidth specs, Program.pinwheel ~bandwidth specs)
  with
  | Ok t, Some reference ->
      for slot = 0 to (2 * Program.period reference) - 1 do
        check_bool "block_at agrees" true
          (Shard.block_at t ~channel:0 slot = Program.block_at reference slot)
      done
  | _ -> Alcotest.fail "design failed"

let test_shard_spread_covers_files () =
  let specs = specs_small () in
  match Shard.design ~channels:2 ~bandwidth:2 specs with
  | Error e -> Alcotest.failf "design failed: %s" e
  | Ok t ->
      check_bool "nothing shed" true (t.Shard.shed = []);
      List.iter
        (fun f ->
          check_int
            (Printf.sprintf "file %d on one channel" f.File_spec.id)
            1
            (List.length (Shard.channels_of t f.File_spec.id)))
        specs;
      (* Per-channel schedules satisfy the per-channel sub-tasks. *)
      Array.iter
        (fun (c : Shard.channel) ->
          check_bool "channel verifies" true
            (c.Shard.tasks = []
            || P.Verify.satisfies
                 (Program.schedule c.Shard.program)
                 c.Shard.tasks))
        t.Shard.channels

let test_shard_striping_partitions_pieces () =
  let specs =
    [
      File_spec.make ~name:"a" ~id:0 ~blocks:3 ~latency:12 ~tolerance:3 ();
      File_spec.make ~name:"b" ~id:1 ~blocks:2 ~latency:12 ~tolerance:2 ();
    ]
  in
  match Shard.design ~stripe:2 ~channels:2 ~bandwidth:2 specs with
  | Error e -> Alcotest.failf "design failed: %s" e
  | Ok t ->
      check_bool "nothing shed" true (t.Shard.shed = []);
      List.iter
        (fun f ->
          let id = f.File_spec.id in
          let ps = Shard.placements_of t id in
          check_int "striped over two channels" 2 (List.length ps);
          let all =
            List.concat_map
              (fun (p : Shard.placement) -> Array.to_list p.Shard.pieces)
              ps
          in
          (* The union of channel shares is exactly {0..N-1}, disjointly. *)
          Alcotest.(check (list int))
            "pieces partition the capacity"
            (List.init f.File_spec.capacity Fun.id)
            (List.sort compare all);
          check_int "no duplicate piece" (List.length all)
            (List.length (List.sort_uniq compare all));
          (* tolerance >= max share here, so one channel can die. *)
          check_bool "outage tolerant" true (Shard.outage_tolerant t id))
        specs

let test_shard_outage_intolerant_without_stripe () =
  let specs = specs_small () in
  match Shard.design ~channels:2 ~bandwidth:2 specs with
  | Error e -> Alcotest.failf "design failed: %s" e
  | Ok t ->
      List.iter
        (fun f ->
          check_bool "single placement is not outage tolerant" false
            (Shard.outage_tolerant t f.File_spec.id))
        specs

let test_shard_sheds_when_overloaded () =
  (* Density 4 x 1/2 = 2 over one channel: roughly half must go. *)
  let specs =
    List.init 4 (fun i ->
        File_spec.make ~id:i ~blocks:2 ~latency:4 ~tolerance:0 ())
  in
  match Shard.design ~channels:1 ~bandwidth:1 specs with
  | Error e -> Alcotest.failf "design failed: %s" e
  | Ok t ->
      check_bool "some files shed" true (t.Shard.shed <> []);
      check_bool "some files served" true (t.Shard.specs <> []);
      check_int "partition of the input" 4
        (List.length t.Shard.specs + List.length t.Shard.shed)

let test_shard_more_channels_serve_more () =
  (* 8 half-density files: 1 channel serves ~2, 4 channels serve all. *)
  let specs =
    List.init 8 (fun i ->
        File_spec.make ~id:i ~blocks:2 ~latency:8 ~tolerance:0 ())
  in
  let served k =
    match Shard.design ~channels:k ~bandwidth:1 specs with
    | Ok t -> List.length t.Shard.specs
    | Error e -> Alcotest.failf "design failed: %s" e
  in
  check_bool "K=4 serves more than K=1" true (served 4 > served 1);
  check_int "K=4 serves everything" 8 (served 4)

let test_shard_bad_args () =
  Alcotest.check_raises "channels < 1"
    (Invalid_argument "Shard.design: channels must be >= 1") (fun () ->
      ignore (Shard.design ~channels:0 ~bandwidth:1 (specs_small ())));
  Alcotest.check_raises "stripe < 1"
    (Invalid_argument "Shard.design: stripe must be >= 1") (fun () ->
      ignore (Shard.design ~stripe:0 ~channels:2 ~bandwidth:1 (specs_small ())));
  check_bool "empty files" true
    (Result.is_error (Shard.design ~channels:2 ~bandwidth:1 []))

(* qcheck: global piece indices aired by a striped channel all share the
   stripe residue, and every admitted file's shares are disjoint across
   channels and cover its capacity. *)
let prop_shard_shares_disjoint_cover =
  QCheck2.Test.make ~name:"stripe shares partition each file's capacity"
    ~count:60
    QCheck2.Gen.(triple (int_range 1 3) (int_range 2 4) (int_bound 1_000_000))
    (fun (stripe, channels, seed) ->
      let st = Random.State.make [| seed |] in
      let specs =
        List.init
          (2 + Random.State.int st 4)
          (fun i ->
            let blocks = 1 + Random.State.int st 3 in
            let tolerance = Random.State.int st 3 in
            File_spec.make ~id:i ~blocks ~tolerance
              ~latency:(8 * (1 + Random.State.int st 3))
              ())
      in
      match Shard.design ~stripe ~channels ~bandwidth:2 specs with
      | Error _ -> false
      | Ok t ->
          List.for_all
            (fun f ->
              let ps = Shard.placements_of t f.File_spec.id in
              ps = []
              || begin
                   let all =
                     List.concat_map
                       (fun (p : Shard.placement) ->
                         Array.to_list p.Shard.pieces)
                       ps
                   in
                   let sorted = List.sort compare all in
                   sorted = List.init f.File_spec.capacity Fun.id
                   && List.length (List.sort_uniq compare ps)
                      = List.length ps
                 end)
            specs)

(* ------------------------------------------------------------------ *)
(* Multi: tuner clients over a sharded design                         *)
(* ------------------------------------------------------------------ *)

module Multi = Pindisk_sim.Multi
module Cohort = Pindisk_sim.Cohort
module Engine = Pindisk_sim.Engine
module Workload = Pindisk_sim.Workload
module Fault = Pindisk_sim.Fault
module Shardcheck = Pindisk_check.Shardcheck
module Ladder = Pindisk_adapt.Ladder

let design_exn ?stripe ~channels ~bandwidth specs =
  match Shard.design ?stripe ~channels ~bandwidth specs with
  | Ok t -> t
  | Error e -> Alcotest.failf "design: %s" e

let clean ~channel:_ ~seed:_ = Fault.none ()

let test_multi_clean_channels_complete () =
  let specs =
    List.init 4 (fun i ->
        File_spec.make ~id:i ~blocks:2 ~latency:8 ~tolerance:0 ())
  in
  let design = design_exn ~channels:2 ~bandwidth:1 specs in
  check_bool "nothing shed" true (design.Shard.shed = []);
  let trace =
    List.map
      (fun (f : File_spec.t) ->
        {
          Workload.issued = 0;
          file = f.File_spec.id;
          needed = f.File_spec.blocks;
          deadline = 64;
        })
      specs
  in
  let r = Multi.run ~design ~tuners:1 ~fault:clean ~seed:1 trace in
  check_int "all completed" (List.length trace) r.Engine.completed;
  check_int "none missed" 0 r.Engine.missed

let test_multi_shed_requests_miss () =
  (* Three density-1/2 files on one channel: at least one must be shed,
     and its clients retire as missed while the served files' clients
     complete. *)
  let specs =
    List.init 3 (fun i ->
        File_spec.make ~id:i ~blocks:2 ~latency:4 ~tolerance:0 ())
  in
  let design = design_exn ~channels:1 ~bandwidth:1 specs in
  check_bool "someone shed" true (design.Shard.shed <> []);
  let served = List.length design.Shard.specs in
  let trace =
    List.map
      (fun (f : File_spec.t) ->
        { Workload.issued = 0; file = f.File_spec.id; needed = 2; deadline = 64 })
      specs
  in
  let r = Multi.run ~design ~tuners:1 ~fault:clean ~seed:1 trace in
  check_int "served files complete" served r.Engine.completed;
  check_int "shed files miss" (3 - served) r.Engine.missed

let test_multi_tuner_budget_matters () =
  (* One file striped over both channels with zero tolerance: a single
     tuner sees only its best channel's share (one piece of two) and
     must miss; two tuners pool the disjoint shares and complete. *)
  let specs = [ File_spec.make ~id:0 ~blocks:2 ~latency:8 ~tolerance:0 () ] in
  let design = design_exn ~stripe:2 ~channels:2 ~bandwidth:1 specs in
  check_int "two placements" 2 (List.length (Shard.placements_of design 0));
  let trace = [ { Workload.issued = 0; file = 0; needed = 2; deadline = 64 } ] in
  let run tuners = Multi.run ~design ~tuners ~fault:clean ~seed:1 trace in
  check_int "one tuner cannot cover the stripe" 1 (run 1).Engine.missed;
  check_int "two tuners collect both pieces" 1 (run 2).Engine.completed

let test_multi_population_lossless_completes () =
  let specs =
    List.init 4 (fun i ->
        File_spec.make ~id:i ~blocks:2 ~latency:8 ~tolerance:0 ())
  in
  let design = design_exn ~channels:2 ~bandwidth:1 specs in
  let members =
    List.map
      (fun (f : File_spec.t) ->
        {
          Multi.issued = 0;
          file = f.File_spec.id;
          needed = 2;
          deadline = 64;
          weight = 250;
        })
      specs
  in
  let r =
    Multi.run_population ~design ~tuners:1
      ~model:(fun ~channel:_ -> Cohort.Bernoulli { p = 0.0 })
      ~seed:3 members
  in
  check_int "all weighted clients complete" 1000 r.Engine.completed;
  check_int "none missed" 0 r.Engine.missed

(* ------------------------------------------------------------------ *)
(* Shardcheck: independent certification                              *)
(* ------------------------------------------------------------------ *)

let test_shardcheck_certifies_design () =
  let specs =
    List.init 6 (fun i ->
        File_spec.make ~id:i ~blocks:2 ~latency:16 ~tolerance:1 ())
  in
  let design = design_exn ~channels:3 ~bandwidth:1 specs in
  let report = Shardcheck.run design in
  check_bool "certified" true (Shardcheck.ok report);
  check_bool "no problems" true (Shardcheck.problems report = []);
  check_int "three channel rows" 3 (List.length report.Shardcheck.channels)

let test_shardcheck_detects_tampering () =
  let specs =
    List.init 4 (fun i ->
        File_spec.make ~id:i ~blocks:2 ~latency:8 ~tolerance:0 ())
  in
  let design = design_exn ~channels:2 ~bandwidth:1 specs in
  (* Corrupt a placement in place — duplicate a piece index so the share
     no longer covers the file. The checker recounts from the placement
     map, so it must notice without any hint from the optimizer. *)
  (match design.Shard.placements with
  | p :: _ ->
      p.Shard.pieces.(Array.length p.Shard.pieces - 1) <- p.Shard.pieces.(0)
  | [] -> Alcotest.fail "no placements");
  let report = Shardcheck.run design in
  check_bool "tamper detected" false (Shardcheck.ok report);
  check_bool "problem reported" true (Shardcheck.problems report <> [])

(* ------------------------------------------------------------------ *)
(* Ladder.evacuate: the channel-migration rung                        *)
(* ------------------------------------------------------------------ *)

let test_evacuate_moves_every_share () =
  let specs =
    List.init 6 (fun i ->
        File_spec.make ~id:i ~blocks:2 ~latency:24 ~tolerance:0 ())
  in
  let design = design_exn ~channels:3 ~bandwidth:1 specs in
  let doomed =
    List.filter
      (fun (p : Shard.placement) -> p.Shard.channel = 0)
      design.Shard.placements
  in
  check_bool "channel 0 carries shares" true (doomed <> []);
  let rungs, stranded = Ladder.evacuate design ~channel:0 in
  check_int "one migration per share" (List.length doomed) (List.length rungs);
  check_bool "nothing stranded" true (stranded = []);
  List.iter
    (fun r ->
      match r with
      | Ladder.Migrate { from_channel; to_channel; _ } ->
          check_int "from the failing channel" 0 from_channel;
          check_bool "to a survivor" true (to_channel <> 0)
      | _ -> Alcotest.fail "expected Migrate")
    rungs

let test_evacuate_strands_unabsorbable () =
  (* Two density-3/4 files on two channels: the survivor cannot absorb
     the evacuated share (3/2 > 1 is provably infeasible), so the rung
     reports it stranded instead of proposing a doomed migration. *)
  let specs =
    List.init 2 (fun i ->
        File_spec.make ~id:i ~blocks:3 ~latency:4 ~tolerance:0 ())
  in
  let design = design_exn ~channels:2 ~bandwidth:1 specs in
  let on0 =
    List.filter_map
      (fun (p : Shard.placement) ->
        if p.Shard.channel = 0 then Some p.Shard.file else None)
      design.Shard.placements
  in
  check_bool "channel 0 carries a file" true (on0 <> []);
  let rungs, stranded = Ladder.evacuate design ~channel:0 in
  check_bool "no migrations possible" true (rungs = []);
  Alcotest.(check (list int)) "stranded files" on0 (List.sort compare stranded)

let () =
  Alcotest.run "shard"
    [
      ( "channels",
        [
          Alcotest.test_case "K=1 identity" `Quick test_channels_k1_identity;
          Alcotest.test_case "partition covers" `Quick
            test_channels_partition_covers;
          Alcotest.test_case "shard plans verify" `Quick
            test_channels_plan_shards_verify;
          Alcotest.test_case "sheds infeasible" `Quick
            test_channels_sheds_infeasible;
          Alcotest.test_case "bad args" `Quick test_channels_bad_args;
          Alcotest.test_case "no overflow summing 16 windows" `Quick
            test_channels_no_overflow;
        ] );
      ( "channels-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_channels_k1_matches_scheduler;
            prop_channels_partition_balanced;
          ] );
      ( "shard",
        [
          Alcotest.test_case "K=1 == Program.pinwheel" `Quick
            test_shard_k1_is_program_pinwheel;
          Alcotest.test_case "K=1 block_at" `Quick
            test_shard_k1_block_at_matches_program;
          Alcotest.test_case "spread covers files" `Quick
            test_shard_spread_covers_files;
          Alcotest.test_case "striping partitions pieces" `Quick
            test_shard_striping_partitions_pieces;
          Alcotest.test_case "no stripe, no outage tolerance" `Quick
            test_shard_outage_intolerant_without_stripe;
          Alcotest.test_case "sheds when overloaded" `Quick
            test_shard_sheds_when_overloaded;
          Alcotest.test_case "more channels serve more" `Quick
            test_shard_more_channels_serve_more;
          Alcotest.test_case "bad args" `Quick test_shard_bad_args;
        ] );
      ( "shard-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_shard_shares_disjoint_cover ] );
      ( "multi",
        [
          Alcotest.test_case "clean channels complete" `Quick
            test_multi_clean_channels_complete;
          Alcotest.test_case "shed requests miss" `Quick
            test_multi_shed_requests_miss;
          Alcotest.test_case "tuner budget matters" `Quick
            test_multi_tuner_budget_matters;
          Alcotest.test_case "lossless population completes" `Quick
            test_multi_population_lossless_completes;
        ] );
      ( "shardcheck",
        [
          Alcotest.test_case "certifies a sound design" `Quick
            test_shardcheck_certifies_design;
          Alcotest.test_case "detects tampering" `Quick
            test_shardcheck_detects_tampering;
        ] );
      ( "evacuate",
        [
          Alcotest.test_case "moves every share" `Quick
            test_evacuate_moves_every_share;
          Alcotest.test_case "strands the unabsorbable" `Quick
            test_evacuate_strands_unabsorbable;
        ] );
    ]
