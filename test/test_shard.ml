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

(* A file's placements, ascending by channel: a scan of the design's
   placement list. *)
let placements_of (t : Shard.t) file =
  List.filter
    (fun (p : Shard.placement) -> p.Shard.file = file)
    t.Shard.placements

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

let test_channels_k1_sheds_by_admission () =
  (* K = 1 places by density like any K: tasks 0 and 1 fill the channel
     (density 1, one slot each in turn) and task 2 is shed by the
     placement check. Shedding on scheduler failure alone would have
     shed the densest task of the whole system, task 1. *)
  let sys = [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:2; Task.unit ~id:2 ~b:4 ] in
  let t = Channels.plan ~channels:1 sys in
  let ids = List.map (fun (tk : Task.t) -> tk.Task.id) in
  Alcotest.(check (list int)) "task 2 shed" [ 2 ] (ids t.Channels.shed);
  Alcotest.(check (list int))
    "tasks 0 and 1 served" [ 0; 1 ]
    (ids (List.hd t.Channels.shards).Channels.tasks)

let test_channels_settle_sheds_everywhere () =
  (* Channel 1 cannot plan three tasks of density 1/2. Its densest task,
     ties to the higher id, is task 3, which also leaves channel 0:
     channel 0 is planned again without it. *)
  let half id = Task.unit ~id ~b:2 in
  let quarter = Task.unit ~id:0 ~b:4 in
  let settled, shed =
    Channels.settle [| [ half 3; quarter ]; [ half 1; half 2; half 3 ] |]
  in
  let ids = List.map (fun (tk : Task.t) -> tk.Task.id) in
  Alcotest.(check (list int)) "task 3 shed" [ 3 ] shed;
  Alcotest.(check (list int)) "channel 0 keeps task 0" [ 0 ] (ids (fst settled.(0)));
  Alcotest.(check (list int))
    "channel 1 keeps tasks 1 and 2" [ 1; 2 ]
    (ids (fst settled.(1)));
  Array.iter
    (fun (tasks, plan) ->
      Alcotest.(check string)
        "each plan is the plan of its surviving tasks"
        (render_schedule (Plan.to_schedule (Option.get (Scheduler.plan tasks))))
        (render_schedule (Plan.to_schedule plan)))
    settled

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
   <= K/2 — every shard stays within Kawamura's 5/6 bound with nothing
   shed. *)
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

(* The paper's program for [specs]: the plan Scheduler.plan finds for
   {(i, m + r, B·T)}, cycling all N pieces of each file. *)
let papers_program ~bandwidth specs =
  match P.Scheduler.plan (Pindisk.Bandwidth.tasks ~bandwidth specs) with
  | exception Invalid_argument _ -> None
  | plan ->
      Option.map
        (Program.of_plan
           ~capacities:
             (List.map (fun f -> (f.File_spec.id, f.File_spec.capacity)) specs))
        plan

let test_shard_k1_is_program_pinwheel () =
  let specs = specs_small () in
  let bandwidth = 2 in
  match
    (Shard.design ~channels:1 ~bandwidth specs, papers_program ~bandwidth specs)
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
    (Shard.design ~channels:1 ~bandwidth specs, papers_program ~bandwidth specs)
  with
  | Ok t, Some reference ->
      for slot = 0 to (2 * Program.data_cycle reference) - 1 do
        check_bool "block_at agrees" true
          (Shard.block_at t ~channel:0 slot = Program.block_at reference slot)
      done
  | _ -> Alcotest.fail "design failed"

(* qcheck: at K = 1 the design is the paper's program on specs with 0-3
   spare pieces: the same verdict, the same program bytes and the same
   blocks over two data cycles. *)
let prop_shard_k1_is_the_papers_program =
  QCheck2.Test.make ~name:"K=1 == the paper's program" ~count:200
    QCheck2.Gen.(triple (int_range 1 6) (int_range 1 2) (int_bound 1_000_000))
    (fun (files, bandwidth, seed) ->
      let st = Random.State.make [| seed |] in
      let specs =
        List.init files (fun id ->
            let blocks = 1 + Random.State.int st 4 in
            let tolerance = Random.State.int st 3 in
            File_spec.make ~id ~blocks ~tolerance
              ~capacity:(blocks + tolerance + Random.State.int st 4)
              ~latency:(2 + Random.State.int st 15)
              ())
      in
      match Shard.design ~channels:1 ~bandwidth specs with
      | Error e -> QCheck2.Test.fail_reportf "design: %s" e
      | Ok t -> (
          match (Shard.program t, papers_program ~bandwidth specs) with
          | None, None -> true
          | Some p, Some reference ->
              render_program p = render_program reference
              && List.for_all
                   (fun slot ->
                     Shard.block_at t ~channel:0 slot = Program.block_at reference slot)
                   (List.init (2 * Program.data_cycle reference) Fun.id)
          | Some _, None -> QCheck2.Test.fail_report "design plans, oracle does not"
          | None, Some _ -> QCheck2.Test.fail_report "oracle plans, design sheds"))

let test_shard_k1_placements_by_file () =
  (* Placements ascend by file id at every K, whatever the spec order. *)
  let specs =
    [
      File_spec.make ~id:5 ~blocks:1 ~latency:4 ();
      File_spec.make ~id:2 ~blocks:1 ~latency:4 ();
    ]
  in
  match Shard.design ~channels:1 ~bandwidth:1 specs with
  | Error e -> Alcotest.failf "design failed: %s" e
  | Ok t ->
      Alcotest.(check (list (pair int int)))
        "(file, channel) ascending" [ (2, 0); (5, 0) ]
        (List.map
           (fun (p : Shard.placement) -> (p.Shard.file, p.Shard.channel))
           t.Shard.placements)

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
          let ps = placements_of t id in
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
    (Result.is_error (Shard.design ~channels:2 ~bandwidth:1 []));
  (* Both the single-channel identity and the striped packer reject a
     zero bandwidth with Shard's own error. *)
  Alcotest.check_raises "bandwidth < 1, K = 1"
    (Invalid_argument "Shard.design: bandwidth must be >= 1") (fun () ->
      ignore (Shard.design ~channels:1 ~bandwidth:0 (specs_small ())));
  Alcotest.check_raises "bandwidth < 1, K = 2, stripe 2"
    (Invalid_argument "Shard.design: bandwidth must be >= 1") (fun () ->
      ignore (Shard.design ~stripe:2 ~channels:2 ~bandwidth:0 (specs_small ())))

let test_shard_sheds_share_beyond_window () =
  (* File 0 needs 4 pieces inside a 2-slot window: no channel can air
     them, so it is shed rather than raising from Task.make. *)
  let specs =
    [
      File_spec.make ~id:0 ~blocks:3 ~tolerance:1 ~latency:2 ();
      File_spec.make ~id:1 ~blocks:1 ~latency:8 ();
    ]
  in
  List.iter
    (fun channels ->
      match Shard.design ~channels ~bandwidth:1 specs with
      | Error e -> Alcotest.failf "design failed: %s" e
      | Ok t ->
          Alcotest.(check (list int))
            "file 0 shed" [ 0 ]
            (List.map (fun f -> f.File_spec.id) t.Shard.shed);
          Alcotest.(check (list int))
            "file 1 served" [ 1 ]
            (List.map (fun f -> f.File_spec.id) t.Shard.specs))
    [ 1; 2 ]

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
              let ps = placements_of t f.File_spec.id in
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
(* The design index against list-scan oracles                         *)
(* ------------------------------------------------------------------ *)

(* The accessors as scans of the placement and spec lists: the
   reference the index is held to. *)
let oracle_placements_of = placements_of

let oracle_spec (t : Shard.t) file =
  List.find_opt
    (fun f -> f.File_spec.id = file)
    (t.Shard.specs @ t.Shard.shed)

(* A share's per-window count by hand: the m + r pieces a window airs
   are dealt like all N, so a channel airs the first m + r it holds. *)
let oracle_per_window (t : Shard.t) (p : Shard.placement) =
  let spec = Option.get (oracle_spec t p.Shard.file) in
  let aired = spec.File_spec.blocks + spec.File_spec.tolerance in
  Array.fold_left (fun n k -> if k < aired then n + 1 else n) 0 p.Shard.pieces

let oracle_channels_of t file =
  oracle_placements_of t file
  |> List.stable_sort (fun (a : Shard.placement) (b : Shard.placement) ->
         compare (oracle_per_window t b) (oracle_per_window t a))
  |> List.map (fun (p : Shard.placement) -> p.Shard.channel)

let oracle_outage_tolerant (t : Shard.t) file =
  match oracle_placements_of t file with
  | [] | [ _ ] -> false
  | ps ->
      let spec = List.find (fun f -> f.File_spec.id = file) t.Shard.specs in
      let sizes = List.map (oracle_per_window t) ps in
      List.fold_left ( + ) 0 sizes - List.fold_left max 0 sizes
      >= spec.File_spec.blocks

let oracle_block_at (t : Shard.t) ~channel slot =
  match Program.block_at t.Shard.channels.(channel).Shard.program slot with
  | None -> None
  | Some (file, local) ->
      let p =
        List.find
          (fun (p : Shard.placement) ->
            p.Shard.file = file && p.Shard.channel = channel)
          t.Shard.placements
      in
      Some (file, p.Shard.pieces.(local))

(* Random designs, K 1-4, stripe 1-3, 2-12 files: windows of 4-16 slots,
   m + r up to 5 and 0-3 spare pieces, so small fleets fit and large ones
   shed. File ids step by 3, leaving unknown ids between them. *)
let gen_design =
  QCheck2.Gen.(
    quad (int_range 1 4) (int_range 1 3) (int_range 2 12) (int_bound 1_000_000))

let random_design (channels, stripe, files, seed) =
  let st = Random.State.make [| seed |] in
  let specs =
    List.init files (fun i ->
        let blocks = 1 + Random.State.int st 3 in
        let tolerance = Random.State.int st 3 in
        File_spec.make ~id:(3 * i) ~blocks ~tolerance
          ~capacity:(blocks + tolerance + Random.State.int st 4)
          ~latency:(4 * (1 + Random.State.int st 4))
          ())
  in
  match Shard.design ~stripe ~channels ~bandwidth:1 specs with
  | Ok t -> t
  | Error e -> QCheck2.Test.fail_reportf "design: %s" e

let prop_index_matches_oracles =
  QCheck2.Test.make ~name:"indexed accessors equal the list scans" ~count:150
    gen_design (fun params ->
      let t = random_design params in
      let _, _, files, _ = params in
      let ids = List.init ((3 * files) + 2) (fun i -> i - 1) in
      List.iter
        (fun id ->
          if Shard.spec t id <> oracle_spec t id then
            QCheck2.Test.fail_reportf "spec %d" id;
          if Shard.channels_of t id <> oracle_channels_of t id then
            QCheck2.Test.fail_reportf "channels_of %d" id;
          if Shard.outage_tolerant t id <> oracle_outage_tolerant t id then
            QCheck2.Test.fail_reportf "outage_tolerant %d" id)
        ids;
      Array.iteri
        (fun c (ch : Shard.channel) ->
          for slot = 0 to (2 * Program.data_cycle ch.Shard.program) - 1 do
            if Shard.block_at t ~channel:c slot <> oracle_block_at t ~channel:c slot
            then QCheck2.Test.fail_reportf "block_at channel %d slot %d" c slot
          done)
        t.Shard.channels;
      true)

(* ------------------------------------------------------------------ *)
(* Pinned designs                                                     *)
(* ------------------------------------------------------------------ *)

(* Everything a design decides, digested: its rendering, every
   placement, the shed ids and every channel's program. *)
let digest_parts ~text ~placements ~shed ~programs =
  let b = Buffer.create 4096 in
  Buffer.add_string b text;
  List.iter
    (fun (file, channel, pieces) ->
      Printf.bprintf b "\n%d@%d:%s" file channel
        (String.concat "," (Array.to_list (Array.map string_of_int pieces))))
    placements;
  Printf.bprintf b "\nshed:%s" (String.concat "," (List.map string_of_int shed));
  List.iter (fun p -> Printf.bprintf b "\n%s" (render_program p)) programs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let design_digest (t : Shard.t) =
  digest_parts
    ~text:(Format.asprintf "%a" Shard.pp t)
    ~placements:
      (List.map
         (fun (p : Shard.placement) -> (p.Shard.file, p.Shard.channel, p.Shard.pieces))
         t.Shard.placements)
    ~shed:(List.map (fun f -> f.File_spec.id) t.Shard.shed)
    ~programs:
      (Array.to_list (Array.map (fun (c : Shard.channel) -> c.Shard.program) t.Shard.channels))

(* perfbench's fleet generator (perfbench/gen.ml), copied. *)
let fleet_specs ~files =
  List.init files (fun id ->
      File_spec.make ~id
        ~blocks:(1 + (id mod 4))
        ~tolerance:(id mod 3)
        ~latency:(16 lsl (id mod 5 mod 4))
        ())

(* E24's population (bench/exp_multichannel.ml), copied. *)
let e24_specs () =
  List.init 32 (fun i ->
      let hot = i < 8 in
      File_spec.make
        ~name:(Printf.sprintf "%s%d" (if hot then "hot" else "cold") i)
        ~id:i
        ~blocks:(if hot then 4 else 2)
        ~latency:16 ())

(* Digests of the list-scan packer's designs: any change to placement,
   shedding or planning moves them. *)
let test_shard_designs_pinned () =
  let pin what expected design =
    match design with
    | Ok t -> Alcotest.(check string) what expected (design_digest t)
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let fleet = fleet_specs ~files:768 in
  pin "fleet, stripe 1" "caf20e0dcd7fd7c1c86ff8e13f3987a5"
    (Shard.design ~channels:4 ~bandwidth:32 fleet);
  pin "fleet, stripe 2" "f8c564f12a22653b514cc679bc1fd7da"
    (Shard.design ~stripe:2 ~channels:4 ~bandwidth:32 fleet);
  List.iter
    (fun (k, expected) ->
      pin (Printf.sprintf "E24, K = %d" k) expected
        (Shard.design ~channels:k ~bandwidth:1 (e24_specs ())))
    [
      (1, "537ba8ac8f62bdc7de73c8860c67373a");
      (2, "6deb4cf13b39ebc66ebd1d2c850350a3");
      (4, "884ee5ed8825ae5153e68e075e4da9d3");
      (8, "01aab5b96733956bb3ad219eae7ceef7");
    ]

(* ------------------------------------------------------------------ *)
(* The sort-and-restart packer, kept as the oracle                    *)
(* ------------------------------------------------------------------ *)

(* The reference packer: every share re-sorts all K channels by load,
   and every scheduler failure re-plans every channel from the first.
   The counters record how often each kind of shed happens, so a
   property can insist that its generator reaches both. *)
let oracle_placement_sheds = ref 0
let oracle_plan_sheds = ref 0

let oracle_lightest ~avoid load task =
  List.init (Array.length load) Fun.id
  |> List.filter (fun c -> not (List.mem c avoid))
  |> List.stable_sort (fun a b ->
         Q.compare (P.Density.density load.(a)) (P.Density.density load.(b)))
  |> List.find_opt (fun c -> P.Density.admits load.(c) task)

(* K 1-64 channels loaded by up to 96 placements, each probed with an
   avoid list of up to three channels. Unit tasks of windows 2 and 3 are
   common, so {2, 3, _} rejects as well as density > 1, and equal loads
   (every channel starts empty) test the index tie. *)
let prop_lightest_matches_oracle =
  QCheck2.Test.make ~name:"lightest equals the sorted scan, K <= 64" ~count:300
    QCheck2.Gen.(triple (int_range 1 64) (int_range 0 96) (int_bound 1_000_000))
    (fun (k, steps, seed) ->
      let st = Random.State.make [| seed |] in
      let loads = Channels.loads k and scan = Array.make k P.Density.empty in
      let task id =
        match Random.State.int st 4 with
        | 0 -> Task.unit ~id ~b:2
        | 1 -> Task.unit ~id ~b:3
        | _ ->
            let b = 2 + Random.State.int st 12 in
            Task.make ~id ~a:(1 + Random.State.int st (min b 3)) ~b
      in
      List.for_all
        (fun id ->
          let t = task id in
          let avoid = List.init (Random.State.int st 4) (fun _ -> Random.State.int st k) in
          let got = Channels.lightest ~avoid loads t in
          let agree = got = oracle_lightest ~avoid scan t in
          Option.iter
            (fun c ->
              Channels.add loads c t;
              scan.(c) <- P.Density.add scan.(c) t)
            got;
          agree)
        (List.init steps Fun.id))

(* Plan every channel from the first; a failure sheds the failing
   channel's densest task (ties: the higher id) everywhere and starts
   over. Returns the surviving lists, their plans and the shed ids. *)
let oracle_settle lists =
  let lists = Array.copy lists in
  let shed = ref [] in
  let rec restart () =
    let plans = Array.map (fun _ -> None) lists in
    let failed =
      List.find_opt
        (fun c ->
          match lists.(c) with
          | [] ->
              plans.(c) <- Some (Plan.progressions []);
              false
          | tasks -> (
              match Scheduler.plan tasks with
              | Some p ->
                  plans.(c) <- Some p;
                  false
              | None -> true))
        (List.init (Array.length lists) Fun.id)
    in
    match failed with
    | None -> Array.map Option.get plans
    | Some c ->
        let tasks = lists.(c) in
        let worst =
          List.fold_left
            (fun (acc : Task.t) (t : Task.t) ->
              let cq = Q.compare (Task.density t) (Task.density acc) in
              if cq > 0 || (cq = 0 && t.Task.id > acc.Task.id) then t else acc)
            (List.hd tasks) (List.tl tasks)
        in
        incr oracle_plan_sheds;
        shed := worst.Task.id :: !shed;
        Array.iteri
          (fun h ts ->
            lists.(h) <- List.filter (fun (t : Task.t) -> t.Task.id <> worst.Task.id) ts)
          lists;
        restart ()
  in
  let plans = restart () in
  (lists, plans, List.rev !shed)

let oracle_share ~s ~n j = Array.init ((n - j + s - 1) / s) (fun i -> j + (i * s))

(* Shard.design by the oracle, digested like design_digest: the
   rendering follows Shard.pp. *)
let oracle_design_digest ~stripe ~channels ~bandwidth specs =
  let load = Array.make channels P.Density.empty in
  let placed = Hashtbl.create 16 in
  let aired f = f.File_spec.blocks + f.File_spec.tolerance in
  let density f = Q.make (aired f) (File_spec.window f ~bandwidth) in
  List.stable_sort (fun a b -> Q.compare (density b) (density a)) specs
  |> List.iter (fun f ->
         let window = File_spec.window f ~bandwidth in
         let s = min (min stripe channels) (aired f) in
         let rec go chosen j =
           if j = s then Some chosen
           else
             let a = Array.length (oracle_share ~s ~n:(aired f) j) in
             if a > window then None
             else
               let task = Task.make ~id:f.File_spec.id ~a ~b:window in
               let avoid = List.map (fun (c, _, _) -> c) chosen in
               match oracle_lightest ~avoid load task with
               | Some c -> go ((c, j, task) :: chosen) (j + 1)
               | None -> None
         in
         match go [] 0 with
         | Some chosen ->
             List.iter
               (fun (c, _, t) -> load.(c) <- P.Density.add load.(c) t)
               chosen;
             Hashtbl.replace placed f.File_spec.id chosen
         | None -> incr oracle_placement_sheds);
  (* Every channel's tasks by a scan of every spec. *)
  let lists =
    Array.init channels (fun c ->
        List.filter_map
          (fun f ->
            Option.bind (Hashtbl.find_opt placed f.File_spec.id)
              (List.find_map (fun (c', _, t) -> if c' = c then Some t else None)))
          specs)
  in
  let lists, plans, shed_ids = oracle_settle lists in
  List.iter (Hashtbl.remove placed) shed_ids;
  let admitted, shed = List.partition (fun f -> Hashtbl.mem placed f.File_spec.id) specs in
  (* Each share's size N_j on channel [c]: a program's capacity. *)
  let size c (t : Task.t) =
    let f = List.find (fun f -> f.File_spec.id = t.Task.id) specs in
    let chosen = Hashtbl.find placed t.Task.id in
    let _, j, _ = List.find (fun (c', _, _) -> c' = c) chosen in
    (t.Task.id, Array.length (oracle_share ~s:(List.length chosen) ~n:f.File_spec.capacity j))
  in
  let placements =
    List.concat_map
      (fun f ->
        let chosen = Hashtbl.find placed f.File_spec.id in
        let s = List.length chosen in
        List.map
          (fun (c, j, _) -> (f.File_spec.id, c, oracle_share ~s ~n:f.File_spec.capacity j))
          chosen)
      admitted
    |> List.sort (fun (f, c, _) (f', c', _) -> compare (f, c) (f', c'))
  in
  let text =
    let line c tasks =
      Printf.sprintf "channel %d: density %s, %d file(s)%s" c
        (Format.asprintf "%a" Q.pp (Task.system_density tasks))
        (List.length tasks)
        (if tasks = [] then ""
         else
           ": "
           ^ String.concat ", "
               (List.map
                  (fun (t : Task.t) -> Printf.sprintf "%d(%d/%d)" t.Task.id t.Task.a t.Task.b)
                  tasks))
    in
    String.concat "\n"
      (Array.to_list (Array.mapi line lists)
      @ [
          Printf.sprintf "shed: %d file(s)%s" (List.length shed)
            (if shed = [] then ""
             else ": " ^ String.concat ", " (List.map (fun f -> f.File_spec.name) shed));
        ])
  in
  digest_parts ~text ~placements
    ~shed:(List.map (fun f -> f.File_spec.id) shed)
    ~programs:
      (Array.to_list
         (Array.mapi
            (fun c plan ->
              Program.make ~schedule:(Plan.to_schedule plan)
                ~capacities:(List.map (size c) lists.(c)))
            plans))

(* Random designs, K 1-6, stripe 1-3, 2-24 files: windows of 2-16
   slots, capacities up to 9 with up to two spare pieces, and file ids
   that are not in spec order. Tight enough that files are shed both by
   the placement check and by the scheduler. *)
let gen_packing =
  QCheck2.Gen.(
    quad (int_range 1 6) (int_range 1 3) (int_range 2 24) (int_bound 1_000_000))

let packing_specs ~files ~seed =
  let st = Random.State.make [| seed |] in
  List.init files (fun i ->
      let blocks = 1 + Random.State.int st 4 in
      let tolerance = Random.State.int st 3 in
      let spare = max 0 (Random.State.int st 4 - 1) in
      File_spec.make ~id:(5 * i mod 24) ~blocks ~tolerance
        ~capacity:(blocks + tolerance + spare)
        ~latency:(2 + Random.State.int st 15)
        ())

let prop_packer_matches_oracle =
  QCheck2.Test.make ~name:"designs equal the sort-and-restart oracle's"
    ~count:200 gen_packing (fun (channels, stripe, files, seed) ->
      let specs = packing_specs ~files ~seed in
      match Shard.design ~stripe ~channels ~bandwidth:1 specs with
      | Error e -> QCheck2.Test.fail_reportf "design: %s" e
      | Ok t ->
          design_digest t
          = oracle_design_digest ~stripe ~channels ~bandwidth:1 specs)

(* One fixed sequence of cases, so the shed counts are reproducible. *)
let test_packer_matches_oracle () =
  oracle_placement_sheds := 0;
  oracle_plan_sheds := 0;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 7 |])
    prop_packer_matches_oracle;
  check_bool "some file shed by placement" true (!oracle_placement_sheds > 0);
  check_bool "some file shed by planning" true (!oracle_plan_sheds > 0)

(* Channels.plan by the oracle: the sort-based partition, then the
   restart loop. *)
let oracle_channels_plan ~channels sys =
  let load = Array.make channels P.Density.empty in
  let placed = Hashtbl.create 16 in
  List.stable_sort
    (fun (a : Task.t) (b : Task.t) -> Q.compare (Task.density b) (Task.density a))
    sys
  |> List.iter (fun (t : Task.t) ->
         match oracle_lightest ~avoid:[] load t with
         | Some c ->
             load.(c) <- P.Density.add load.(c) t;
             Hashtbl.replace placed t.Task.id c
         | None -> incr oracle_placement_sheds);
  let lists =
    Array.init channels (fun c ->
        List.filter
          (fun (t : Task.t) -> Hashtbl.find_opt placed t.Task.id = Some c)
          sys)
  in
  let lists, plans, shed_ids = oracle_settle lists in
  {
    Channels.channels;
    shards =
      List.init channels (fun channel ->
          {
            Channels.channel;
            tasks = lists.(channel);
            density = Task.system_density lists.(channel);
            plan = plans.(channel);
          });
    shed =
      List.filter
        (fun (t : Task.t) ->
          (not (Hashtbl.mem placed t.Task.id)) || List.mem t.Task.id shed_ids)
        sys;
  }

let render_channels (t : Channels.t) =
  String.concat "\n"
    (List.map
       (fun (s : Channels.shard) ->
         Format.asprintf "%d: %a = %a; %s" s.Channels.channel Task.pp_system
           s.Channels.tasks Q.pp s.Channels.density
           (render_schedule (Plan.to_schedule s.Channels.plan)))
       t.Channels.shards
    @ [ Format.asprintf "shed: %a" Task.pp_system t.Channels.shed ])

(* Random multi-unit systems, K 2-6, 2-24 tasks of density up to 1 in
   windows of 2-16 slots. *)
let prop_channels_plan_matches_oracle =
  QCheck2.Test.make ~name:"plan equals the sort-and-restart oracle's, K >= 2"
    ~count:200
    QCheck2.Gen.(triple (int_range 2 6) (int_range 2 24) (int_bound 1_000_000))
    (fun (channels, n, seed) ->
      let st = Random.State.make [| seed |] in
      let sys =
        List.init n (fun id ->
            let b = 2 + Random.State.int st 15 in
            Task.make ~id ~a:(1 + Random.State.int st (min b 4)) ~b)
      in
      render_channels (Channels.plan ~channels sys)
      = render_channels (oracle_channels_plan ~channels sys))

(* ------------------------------------------------------------------ *)
(* Multi: tuner clients over a sharded design                         *)
(* ------------------------------------------------------------------ *)

module Multi = Pindisk_sim.Multi
module Cohort = Pindisk_sim.Cohort
module Engine = Pindisk_sim.Engine
module Workload = Pindisk_sim.Workload
module Fault = Pindisk_sim.Fault
module Retire = Pindisk_sim.Retire
module Stats = Pindisk_util.Stats
module Intmath = Pindisk_util.Intmath
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
  check_int "two placements" 2 (List.length (placements_of design 0));
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

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* The reference walk Multi.run is checked against, slot by slot: every
   tuned channel's slot is resolved through the list-scan block_at into a
   global piece index, and the slot that completes the request still
   runs its later channels, whose losses count. *)
let multi_oracle ~max_slots ~design ~tuners ~fault ~seed trace =
  let rows =
    List.mapi
      (fun k (r : Workload.request) ->
        let listen = take tuners (oracle_channels_of design r.Workload.file) in
        let reachable =
          List.fold_left
            (fun acc (p : Shard.placement) ->
              if List.mem p.Shard.channel listen then
                acc + Array.length p.Shard.pieces
              else acc)
            0
            (oracle_placements_of design r.Workload.file)
        in
        let row elapsed losses =
          {
            Retire.file = r.Workload.file;
            deadline = r.Workload.deadline;
            elapsed;
            weight = 1;
            losses;
          }
        in
        if listen = [] || reachable < r.Workload.needed then row None 0
        else begin
          let faults =
            List.map
              (fun c ->
                let fl =
                  fault ~channel:c
                    ~seed:(Intmath.mix64 (Intmath.mix64 (seed + k) + c))
                in
                Fault.reset_to fl r.Workload.issued;
                (c, fl))
              listen
          in
          let got = Hashtbl.create 8 in
          let losses = ref 0 and elapsed = ref None in
          let s = ref r.Workload.issued in
          while !elapsed = None && !s < r.Workload.issued + max_slots do
            List.iter
              (fun (c, fl) ->
                let lost = Fault.advance fl in
                match oracle_block_at design ~channel:c !s with
                | Some (f, piece) when f = r.Workload.file ->
                    if lost then incr losses
                    else if not (Hashtbl.mem got piece) then begin
                      Hashtbl.replace got piece ();
                      if Hashtbl.length got = r.Workload.needed then
                        elapsed := Some (!s - r.Workload.issued + 1)
                    end
                | _ -> ())
              faults;
            incr s
          done;
          row !elapsed !losses
        end)
      trace
  in
  Retire.retire ~sinks:(Retire.sinks ~prefix:"oracle") rows

(* Every count, loss, latency accumulator and per-file stat, exactly
   (floats in hex). *)
let render_result (r : Engine.result) =
  let stats s =
    if Stats.count s = 0 then "0"
    else
      Printf.sprintf "%d %h %h %h %h %h %h" (Stats.count s) (Stats.total s)
        (Stats.min_value s) (Stats.max_value s) (Stats.median s)
        (Stats.percentile s 99.0) (Stats.variance s)
  in
  String.concat "\n"
    (Printf.sprintf "%d requests %d completed %d missed %d losses; %s"
       r.Engine.requests r.Engine.completed r.Engine.missed r.Engine.losses
       (stats r.Engine.latency)
    :: List.map
         (fun (f : Engine.file_stats) ->
           Printf.sprintf "file %d: %d requests %d missed; %s" f.Engine.file
             f.Engine.requests f.Engine.missed (stats f.Engine.latency))
         r.Engine.per_file)

let prop_multi_run_matches_oracle =
  QCheck2.Test.make ~name:"Multi.run equals the per-slot block_at walk"
    ~count:150
    QCheck2.Gen.(
      quad (int_range 1 4) (int_range 1 3) (int_range 1 3) (int_bound 1_000_000))
    (fun (channels, stripe, tuners, seed) ->
      let st = Random.State.make [| seed |] in
      let specs =
        List.init
          (2 + Random.State.int st 5)
          (fun i ->
            File_spec.make ~id:i
              ~blocks:(1 + Random.State.int st 3)
              ~tolerance:(Random.State.int st 3)
              ~latency:(8 * (1 + Random.State.int st 3))
              ())
      in
      let design = design_exn ~stripe ~channels ~bandwidth:2 specs in
      (* Issue slots over two periods and windows up to three, so sweeps
         start past a period's last offset and wrap its offsets. *)
      let period =
        Array.fold_left
          (fun acc (c : Shard.channel) ->
            max acc (Program.period c.Shard.program))
          1 design.Shard.channels
      in
      let trace =
        List.init
          (5 + Random.State.int st 20)
          (fun _ ->
            let f = List.nth specs (Random.State.int st (List.length specs)) in
            {
              Workload.issued = Random.State.int st (2 * period);
              file = f.File_spec.id;
              needed = 1 + Random.State.int st f.File_spec.capacity;
              deadline = Random.State.int st 48;
            })
      in
      let kind = Random.State.int st 4 in
      let fault ~channel ~seed =
        match kind with
        | 0 -> Fault.none ()
        | 1 -> Fault.deterministic (fun t -> (t + channel) mod 3 = 0)
        | 2 -> Fault.bernoulli ~p:(0.1 *. float_of_int (channel + 1)) ~seed
        | _ ->
            Fault.burst
              ~p_good_to_bad:(0.05 *. float_of_int (channel + 1))
              ~p_bad_to_good:0.3 ~loss_good:0.05 ~loss_bad:0.6 ~seed
      in
      let max_slots = 1 + Random.State.int st (3 * period) in
      let fault_seed = Random.State.int st 1000 in
      let exact =
        Multi.run ~max_slots ~design ~tuners ~fault ~seed:fault_seed trace
      in
      let oracle =
        multi_oracle ~max_slots ~design ~tuners ~fault ~seed:fault_seed trace
      in
      render_result exact = render_result oracle
      || QCheck2.Test.fail_reportf "Multi.run:\n%s\noracle:\n%s"
           (render_result exact) (render_result oracle))

(* Multi.run_population as it stood when each channel retired on its
   own: the unserved members' result first, then each channel's
   Cohort.run_population merged in, in channel order. *)
let multi_population_reference ~max_slots ~design ~tuners ~model ~seed members
    =
  let channels = Array.length design.Shard.channels in
  let program c = design.Shard.channels.(c).Shard.program in
  let per_channel = Array.make channels [] and unserved = ref [] in
  List.iter
    (fun (m : Multi.member) ->
      let listen = take tuners (Shard.channels_of design m.Multi.file) in
      match
        List.find_opt
          (fun c -> Program.capacity (program c) m.Multi.file >= m.Multi.needed)
          listen
      with
      | Some c -> per_channel.(c) <- m :: per_channel.(c)
      | None -> unserved := m :: !unserved)
    members;
  let acc =
    ref
      (Retire.retire
         ~sinks:(Retire.sinks ~prefix:"reference")
         (List.rev_map
            (fun (m : Multi.member) ->
              {
                Retire.file = m.Multi.file;
                deadline = m.Multi.deadline;
                elapsed = None;
                weight = m.Multi.weight;
                losses = 0;
              })
            !unserved))
  in
  for c = 0 to channels - 1 do
    match List.rev per_channel.(c) with
    | [] -> ()
    | ms ->
        let period = Program.period (program c) in
        let classes =
          List.map
            (fun (m : Multi.member) ->
              {
                Cohort.key =
                  {
                    Cohort.file = m.Multi.file;
                    phase = m.Multi.issued mod period;
                    needed = m.Multi.needed;
                    deadline = m.Multi.deadline;
                  };
                weight = m.Multi.weight;
              })
            ms
        in
        acc :=
          Retire.merge !acc
            (Cohort.retire
               (Cohort.population_rows ~max_slots ~program:(program c)
                  ~model:(model ~channel:c)
                  ~seed:(Intmath.mix64 (seed + c))
                  ~rest:[] classes))
  done;
  !acc

let prop_multi_population_matches_reference =
  QCheck2.Test.make
    ~name:"Multi.run_population equals the per-channel fold and merge"
    ~count:100
    QCheck2.Gen.(
      quad (int_range 1 4) (int_range 1 3) (int_range 1 3) (int_bound 1_000_000))
    (fun (channels, stripe, tuners, seed) ->
      let st = Random.State.make [| seed |] in
      (* Dense files on narrow channels, so some are shed and their
         members, like those a short tuner budget cannot serve, retire
         unserved. *)
      let specs =
        List.init
          (2 + Random.State.int st 7)
          (fun i ->
            File_spec.make ~id:i
              ~blocks:(1 + Random.State.int st 3)
              ~tolerance:(Random.State.int st 3)
              ~latency:(2 * (1 + Random.State.int st 4))
              ())
      in
      let design = design_exn ~stripe ~channels ~bandwidth:2 specs in
      let period =
        Array.fold_left
          (fun acc (c : Shard.channel) ->
            max acc (Program.period c.Shard.program))
          1 design.Shard.channels
      in
      let members =
        List.init
          (5 + Random.State.int st 30)
          (fun _ ->
            let f = List.nth specs (Random.State.int st (List.length specs)) in
            {
              Multi.issued = Random.State.int st (2 * period);
              file = f.File_spec.id;
              needed = 1 + Random.State.int st f.File_spec.capacity;
              deadline = Random.State.int st 48;
              weight =
                (match Random.State.int st 4 with
                | 0 -> 0
                | 1 -> 1
                | _ -> Random.State.int st 2000);
            })
      in
      let kinds = Random.State.int st 16 in
      let model ~channel =
        if (kinds lsr channel) land 1 = 0 then
          Cohort.Bernoulli { p = 0.1 *. float_of_int (channel + 1) }
        else
          Cohort.Burst
            { p_good_to_bad = 0.05; p_bad_to_good = 0.3; loss_good = 0.05;
              loss_bad = 0.6 }
      in
      let max_slots = 1 + Random.State.int st (3 * period) in
      let fold_seed = Random.State.int st 1000 in
      let fold =
        Multi.run_population ~max_slots ~design ~tuners ~model ~seed:fold_seed
          members
      in
      let reference =
        multi_population_reference ~max_slots ~design ~tuners ~model
          ~seed:fold_seed members
      in
      render_result fold = render_result reference
      || QCheck2.Test.fail_reportf "Multi.run_population:\n%s\nreference:\n%s"
           (render_result fold) (render_result reference))

(* The perfbench population's shape: 768 files on 4 unstriped channels,
   every file at 12 issue phases. Its 9216 classes share 48 completion
   laws, one per (capacity, needed) pair on each channel. *)
let test_multi_population_shares_laws () =
  let module Obs = Pindisk_obs in
  let design = design_exn ~channels:4 ~bandwidth:32 (fleet_specs ~files:768) in
  let members =
    List.concat_map
      (fun (f : File_spec.t) ->
        List.init 12 (fun k ->
            {
              Multi.issued = 97 * k;
              file = f.File_spec.id;
              needed = f.File_spec.blocks;
              deadline = File_spec.window f ~bandwidth:32;
              weight = 1000;
            }))
      design.Shard.specs
  in
  Obs.Control.with_enabled true (fun () ->
      Obs.Registry.reset ();
      ignore
        (Multi.run_population ~max_slots:8192 ~design ~tuners:1
           ~model:(fun ~channel:_ -> Cohort.Bernoulli { p = 0.05 })
           ~seed:1 members);
      let counter name = List.assoc name (Obs.Registry.counters ()) in
      check_int "classes" 9216 (counter "cohort.classes");
      check_int "analytic classes" 9216 (counter "cohort.analytic");
      check_int "laws" 48 (counter "cohort.laws"))

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

(* The two corruptions certification exists for, on the perfbench
   fleet's design (768 files, K = 4, stripe 2): one busy slot of a
   channel's aired schedule given to another file, and one piece aired
   by two shares of a file. *)
let test_shardcheck_detects_corruption () =
  let fresh () = design_exn ~stripe:2 ~channels:4 ~bandwidth:32 (fleet_specs ~files:768) in
  check_bool "fleet design certifies" true (Shardcheck.ok (Shardcheck.run (fresh ())));
  let design = fresh () in
  let slots = (Program.schedule design.Shard.channels.(2).Shard.program).Schedule.slots in
  let s = ref 0 in
  while slots.(!s) = Schedule.idle do incr s done;
  slots.(!s) <- (if slots.(!s) = 0 then 1 else 0);
  let report = Shardcheck.run design in
  check_bool "corrupt slot detected" false (Shardcheck.ok report);
  check_bool "channel 2 not witnessed" false
    (List.nth report.Shardcheck.channels 2).Shardcheck.witnessed;
  let design = fresh () in
  (match placements_of design 5 with
  | a :: b :: _ -> b.Shard.pieces.(0) <- a.Shard.pieces.(0)
  | _ -> Alcotest.fail "file 5 is striped over two channels");
  let report = Shardcheck.run design in
  check_bool "shared piece detected" false (Shardcheck.ok report);
  let f5 =
    List.find (fun (f : Shardcheck.file_report) -> f.Shardcheck.file = 5)
      report.Shardcheck.files
  in
  check_bool "file 5 not disjoint" false f5.Shardcheck.disjoint;
  check_bool "file 5 not covered" false f5.Shardcheck.covered

(* qcheck: Shardcheck's outage verdict is its own recount, equal to a
   hand count over the placement list. *)
let test_shardcheck_k1_spare_capacity () =
  (* File a keeps 6 pieces for m + r = 3. Its one channel airs three a
     window and cycles all six, the counts Shardcheck recounts, as a
     channel does at every K. *)
  let specs =
    [
      File_spec.make ~name:"a" ~id:0 ~blocks:2 ~tolerance:1 ~capacity:6
        ~latency:8 ();
      File_spec.make ~name:"b" ~id:1 ~blocks:2 ~latency:8 ();
    ]
  in
  let t = design_exn ~channels:1 ~bandwidth:1 specs in
  check_bool "nothing shed" true (t.Shard.shed = []);
  Alcotest.(check (list (pair int int)))
    "(file, m + r) tasks" [ (0, 3); (1, 2) ]
    (List.map
       (fun (tk : Task.t) -> (tk.Task.id, tk.Task.a))
       t.Shard.channels.(0).Shard.tasks);
  Alcotest.(check (list string))
    "certified" [] (Shardcheck.problems (Shardcheck.run t))

let prop_shardcheck_recounts_outage =
  QCheck2.Test.make ~name:"Shardcheck outage_tolerant equals a hand count"
    ~count:150 gen_design (fun params ->
      let t = random_design params in
      List.for_all
        (fun (f : Shardcheck.file_report) ->
          f.Shardcheck.outage_tolerant
          = oracle_outage_tolerant t f.Shardcheck.file)
        (Shardcheck.run t).Shardcheck.files)

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
          Alcotest.test_case "K=1 sheds by admission" `Quick
            test_channels_k1_sheds_by_admission;
          Alcotest.test_case "settle sheds everywhere" `Quick
            test_channels_settle_sheds_everywhere;
        ] );
      ( "channels-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_channels_k1_matches_scheduler;
            prop_channels_partition_balanced;
            prop_channels_plan_matches_oracle;
            prop_lightest_matches_oracle;
          ] );
      ( "shard",
        [
          Alcotest.test_case "K=1 == Program.pinwheel" `Quick
            test_shard_k1_is_program_pinwheel;
          Alcotest.test_case "K=1 block_at" `Quick
            test_shard_k1_block_at_matches_program;
          QCheck_alcotest.to_alcotest prop_shard_k1_is_the_papers_program;
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
          Alcotest.test_case "sheds a share beyond its window" `Quick
            test_shard_sheds_share_beyond_window;
          Alcotest.test_case "K=1 placements by file" `Quick
            test_shard_k1_placements_by_file;
        ] );
      ( "shard-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_shard_shares_disjoint_cover; prop_index_matches_oracles ]
        @ [
            Alcotest.test_case "designs equal the oracle packer's" `Quick
              test_packer_matches_oracle;
          ] );
      ( "shard-pinned",
        [
          Alcotest.test_case "designs match their digests" `Quick
            test_shard_designs_pinned;
        ] );
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
          Alcotest.test_case "population shares completion laws" `Quick
            test_multi_population_shares_laws;
        ] );
      ( "multi-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_multi_run_matches_oracle;
            prop_multi_population_matches_reference ] );
      ( "shardcheck",
        [
          Alcotest.test_case "certifies a sound design" `Quick
            test_shardcheck_certifies_design;
          Alcotest.test_case "detects tampering" `Quick
            test_shardcheck_detects_tampering;
          Alcotest.test_case "detects a corrupt slot and a shared piece" `Quick
            test_shardcheck_detects_corruption;
          (* Kept in this group: a group name longer than
             "channels-properties" widens alcotest's name column and
             truncates every other test name in this suite. *)
          QCheck_alcotest.to_alcotest prop_shardcheck_recounts_outage;
          Alcotest.test_case "certifies K=1 spare capacity" `Quick
            test_shardcheck_k1_spare_capacity;
        ] );
      ( "evacuate",
        [
          Alcotest.test_case "moves every share" `Quick
            test_evacuate_moves_every_share;
          Alcotest.test_case "strands the unabsorbable" `Quick
            test_evacuate_strands_unabsorbable;
        ] );
    ]
