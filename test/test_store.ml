module Program = Pindisk.Program
module Schedule = Pindisk_pinwheel.Schedule
module Plan = Pindisk_pinwheel.Plan
module Ida = Pindisk_ida.Ida
module Latency = Pindisk_store.Latency
module Block_store = Pindisk_store.Block_store
module Checkpoint = Pindisk_store.Checkpoint
module Server = Pindisk_store.Server
module Scenario = Pindisk_store.Scenario
module Swap = Pindisk_adapt.Swap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let toy_layout =
  [ (0, 0); (1, 0); (0, 1); (0, 2); (1, 1); (0, 3); (1, 2); (0, 4) ]

let toy_program () = Program.of_layout toy_layout ~capacities:[ (0, 10); (1, 6) ]

let toy_files =
  [
    (0, 3, Bytes.of_string "intelligent vehicle highway system db");
    (1, 2, Bytes.of_string "awacs feed");
  ]

let toy_store ?(depth = 8) latency =
  Block_store.create ~depth ~latency ~program:(toy_program ()) toy_files

let toy_plan () = Plan.explicit (Program.schedule (toy_program ()))

(* ------------------------------------------------------------------ *)
(* Latency                                                             *)
(* ------------------------------------------------------------------ *)

let test_latency_pure () =
  (* The stochastic verdict is a pure function of (read id, issue slot):
     any call order, any repetition, same verdicts. *)
  let l = Latency.stochastic ~fail_p:0.2 ~slow_p:0.3 ~slow_slots:5 ~seed:42 () in
  let a = List.init 200 (fun i -> Latency.draw l ~read_id:i ~slot:i) in
  let b =
    List.rev
      (List.rev_map (fun i -> Latency.draw l ~read_id:i ~slot:i)
         (List.init 200 Fun.id))
  in
  check_bool "order-independent" true (a = b);
  let failures =
    List.length (List.filter (fun v -> v = Latency.Failed) a)
  in
  check_bool "some reads fail at fail_p 0.2" true
    (failures > 10 && failures < 100)

let test_latency_stuck_window () =
  let base = Latency.fixed 1 in
  let l = Latency.stuck ~from_:10 ~until_:20 base in
  (match Latency.draw l ~read_id:0 ~slot:5 with
  | Latency.Ready_in 1 -> ()
  | _ -> Alcotest.fail "outside the window the base process rules");
  (match Latency.draw l ~read_id:1 ~slot:10 with
  | Latency.Ready_in d -> check_int "pinned to window end" 11 d
  | Latency.Failed -> Alcotest.fail "stuck reads complete, late");
  (match Latency.draw l ~read_id:2 ~slot:19 with
  | Latency.Ready_in d -> check_int "end of window" 2 d
  | Latency.Failed -> Alcotest.fail "stuck reads complete, late");
  match Latency.draw l ~read_id:3 ~slot:20 with
  | Latency.Ready_in 1 -> ()
  | _ -> Alcotest.fail "window is half-open"

let test_latency_validation () =
  Alcotest.check_raises "negative fixed"
    (Invalid_argument "Latency.fixed: negative service time") (fun () ->
      ignore (Latency.fixed (-1)));
  Alcotest.check_raises "fail_p out of range"
    (Invalid_argument "Latency.stochastic: fail_p must be in [0, 1]")
    (fun () -> ignore (Latency.stochastic ~fail_p:1.5 ~seed:0 ()));
  Alcotest.check_raises "fail_p nan"
    (Invalid_argument "Latency.stochastic: fail_p must be in [0, 1]")
    (fun () -> ignore (Latency.stochastic ~fail_p:Float.nan ~seed:0 ()));
  Alcotest.check_raises "slow_p nan"
    (Invalid_argument "Latency.stochastic: slow_p must be in [0, 1]")
    (fun () -> ignore (Latency.stochastic ~slow_p:Float.nan ~seed:0 ()));
  Alcotest.check_raises "bad stuck window"
    (Invalid_argument "Latency.stuck: need 0 <= from_ <= until_") (fun () ->
      ignore (Latency.stuck ~from_:5 ~until_:4 Latency.immediate))

(* ------------------------------------------------------------------ *)
(* Block_store                                                         *)
(* ------------------------------------------------------------------ *)

let test_store_ready_and_cycling () =
  let s = toy_store Latency.immediate in
  Block_store.submit s ~slot:0 ~air:0 ~file:0 ~occurrence:0;
  (match Block_store.take s ~slot:0 with
  | `Ready p -> check_int "occurrence 0 is piece 0" 0 p.Ida.index
  | _ -> Alcotest.fail "immediate read is ready");
  (* Block cycling: occurrence 12 of a capacity-10 file airs piece 2. *)
  Block_store.submit s ~slot:1 ~air:1 ~file:0 ~occurrence:12;
  (match Block_store.take s ~slot:1 with
  | `Ready p -> check_int "occurrence mod capacity" 2 p.Ida.index
  | _ -> Alcotest.fail "immediate read is ready");
  check_int "ids are monotone" 2 (Block_store.next_read s)

let test_store_late_failed_overflow () =
  (* A fixed 5-slot service time with a 2-slot lead: every read is late,
     and stays in the queue until it completes. *)
  let s = toy_store (Latency.fixed 5) in
  Block_store.submit s ~slot:0 ~air:2 ~file:0 ~occurrence:0;
  (match Block_store.take s ~slot:2 with
  | `Late 5 -> ()
  | _ -> Alcotest.fail "read due at 2 completes at 5");
  check_int "late read still occupies the queue" 1
    (Block_store.outstanding s ~slot:2);
  check_int "…until it completes" 0 (Block_store.outstanding s ~slot:5);
  (* Scripted failure surfaces as `Failed at air time. *)
  let s =
    toy_store (Latency.scripted (fun ~read_id:_ ~slot:_ -> Latency.Failed))
  in
  Block_store.submit s ~slot:0 ~air:1 ~file:1 ~occurrence:0;
  (match Block_store.take s ~slot:1 with
  | `Failed -> ()
  | _ -> Alcotest.fail "failed verdict surfaces at air time");
  (* Depth-1 queue: the second in-flight read is shed at submit time. *)
  let s = toy_store ~depth:1 (Latency.fixed 10) in
  Block_store.submit s ~slot:0 ~air:3 ~file:0 ~occurrence:0;
  Block_store.submit s ~slot:1 ~air:4 ~file:0 ~occurrence:1;
  (match Block_store.take s ~slot:4 with
  | `Overflow -> ()
  | _ -> Alcotest.fail "second read overflows a depth-1 queue");
  match Block_store.take s ~slot:5 with
  | `Missing -> ()
  | _ -> Alcotest.fail "no read was submitted for slot 5"

let test_store_validation () =
  Alcotest.check_raises "unknown file at submit"
    (Invalid_argument "Block_store.submit: unknown file 9") (fun () ->
      Block_store.submit (toy_store Latency.immediate) ~slot:0 ~air:0 ~file:9
        ~occurrence:0);
  Alcotest.check_raises "missing content"
    (Invalid_argument "Block_store.create: no content for file 1") (fun () ->
      ignore
        (Block_store.create ~latency:Latency.immediate
           ~program:(toy_program ())
           [ (0, 3, Bytes.of_string "x") ]))

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

let test_server_matches_on_air () =
  (* Under immediate latency the server airs exactly the transport's
     eager on_air sequence — file ids and piece indices. *)
  let transport =
    Pindisk_sim.Transport.create ~program:(toy_program ()) toy_files
  in
  let server = Server.create ~plan:(toy_plan ()) (toy_store Latency.immediate) in
  for slot = 0 to 3 * 8 do
    let _, out = Server.step server in
    match (out, Pindisk_sim.Transport.on_air transport slot) with
    | Server.Idle, None -> ()
    | Server.Piece (f, p), Some (f', p') ->
        check_int (Printf.sprintf "file at %d" slot) f' f;
        check_int (Printf.sprintf "piece at %d" slot) p'.Ida.index p.Ida.index;
        check_bool
          (Printf.sprintf "bytes at %d" slot)
          true
          (Bytes.equal p.Ida.data p'.Ida.data)
    | _ -> Alcotest.failf "slot %d: server and transport disagree" slot
  done

let test_server_late_reads_fault_slots () =
  (* Service time beyond the prefetch lead: every busy slot faults —
     late at first, then by queue overflow once nine 9-slot reads are
     in flight against the depth-8 queue. *)
  let server =
    Server.create ~lookahead:2 ~plan:(toy_plan ()) (toy_store (Latency.fixed 9))
  in
  let late = ref 0 and overflow = ref 0 in
  for _ = 1 to 16 do
    match snd (Server.step server) with
    | Server.Idle -> Alcotest.fail "toy program has no idle slots"
    | Server.Faulted (Server.Read_late _) -> incr late
    | Server.Faulted Server.Queue_overflow -> incr overflow
    | _ -> Alcotest.fail "9-slot reads with a 2-slot lead cannot air"
  done;
  check_bool "late faults observed" true (!late > 0);
  check_bool "queue eventually overflows" true (!overflow > 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let server =
    Server.create ~plan:(toy_plan ())
      (toy_store (Latency.stochastic ~fail_p:0.1 ~slow_p:0.3 ~slow_slots:6
                    ~seed:3 ()))
  in
  for _ = 1 to 23 do
    ignore (Server.step server)
  done;
  let c = Server.checkpoint server in
  check_int "slot" 23 c.Checkpoint.slot;
  check_int "period stamp" 2 c.Checkpoint.period_stamp;
  let s = Checkpoint.to_string c in
  (match Checkpoint.of_string s with
  | Ok c' ->
      check_bool "parse inverts print" true (c = c');
      Alcotest.(check string) "reprint is byte-stable" s
        (Checkpoint.to_string c')
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  (* Schema and queue-shape errors are typed, not exceptions. *)
  (match Checkpoint.of_string "{\"schema\": \"bogus v0\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus schema must be rejected");
  match Checkpoint.of_string "[1, 2]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object must be rejected"

let test_checkpoint_file_roundtrip () =
  let server = Server.create ~plan:(toy_plan ()) (toy_store Latency.immediate) in
  for _ = 1 to 5 do
    ignore (Server.step server)
  done;
  let c = Server.checkpoint server in
  let path = Filename.temp_file "pindisk_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save c path;
      match Checkpoint.load path with
      | Ok c' -> check_bool "file round trip" true (c = c')
      | Error e -> Alcotest.failf "load failed: %s" e)

(* ------------------------------------------------------------------ *)
(* Crash-restart determinism (the acceptance test)                     *)
(* ------------------------------------------------------------------ *)

let chaotic_latency () =
  Latency.stochastic ~fail_p:0.08 ~slow_p:0.25 ~slow_slots:5 ~seed:97 ()

let test_crash_restart_determinism () =
  (* Kill the server at an arbitrary slot, restart from the latest
     checkpoint, and require the re-aired slot sequence byte-identical
     to an uninterrupted run — at every kill position and at several
     checkpoint cadences, under a lossy, slow storage process. *)
  let horizon = 96 in
  let plan = toy_plan () in
  let reference =
    let server = Server.create ~lookahead:3 ~plan (toy_store (chaotic_latency ())) in
    Array.init horizon (fun _ -> snd (Server.step server))
  in
  List.iter
    (fun checkpoint_every ->
      List.iter
        (fun kill_at ->
          let store = toy_store (chaotic_latency ()) in
          let server = ref (Server.create ~lookahead:3 ~plan store) in
          let ckpt = ref (Server.checkpoint !server) in
          for _ = 1 to kill_at do
            ignore (Server.step !server);
            if Server.slot !server mod checkpoint_every = 0 then
              ckpt := Server.checkpoint !server
          done;
          (* The crash: all volatile state dies with !server; the restart
             rebuilds from the checkpoint alone (via its JSON form, so the
             serialization is part of the acceptance path). *)
          let c =
            match Checkpoint.of_string (Checkpoint.to_string !ckpt) with
            | Ok c -> c
            | Error e -> Alcotest.failf "checkpoint decode: %s" e
          in
          (match Server.restore ~lookahead:3 ~plan store c with
          | Ok s -> server := s
          | Error e -> Alcotest.failf "restore: %s" e);
          check_int "restart resumes at the checkpoint slot"
            c.Checkpoint.slot (Server.slot !server);
          for _ = c.Checkpoint.slot to horizon - 1 do
            let l, out = Server.step !server in
            if out <> reference.(l) then
              Alcotest.failf
                "kill %d ckpt-every %d: slot %d differs after restart"
                kill_at checkpoint_every l
          done)
        [ 1; 7; 8; 13; 24; 40; 63 ])
    [ 4; 8; 16 ]

let test_restore_rejects_mismatch () =
  let plan = toy_plan () in
  let server = Server.create ~plan (toy_store Latency.immediate) in
  for _ = 1 to 10 do
    ignore (Server.step server)
  done;
  let c = Server.checkpoint server in
  (* A different program: digest check refuses the checkpoint. *)
  let other_prog = Program.of_layout toy_layout ~capacities:[ (0, 5); (1, 3) ] in
  let other_store =
    Block_store.create ~latency:Latency.immediate ~program:other_prog
      [
        (0, 3, Bytes.of_string "intelligent vehicle highway system db");
        (1, 2, Bytes.of_string "awacs feed");
      ]
  in
  (match
     Server.restore ~plan:(Plan.explicit (Program.schedule other_prog))
       other_store c
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "digest mismatch must be refused");
  (* A doctored period is refused too. *)
  match
    Server.restore ~plan (toy_store Latency.immediate)
      { c with Checkpoint.period = 99 }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "period mismatch must be refused"

let test_program_digest_kept () =
  let store = toy_store Latency.immediate in
  let d = Block_store.program_digest store in
  Alcotest.(check string) "Swap.digest of the program"
    (Swap.digest (Block_store.program store)) d;
  Alcotest.(check string) "kept" d (Block_store.program_digest store);
  let server = Server.create ~plan:(toy_plan ()) store in
  ignore (Server.step server);
  let c = Server.checkpoint server in
  Alcotest.(check string) "checkpoint carries it" d c.Checkpoint.program_digest;
  (* Another program's store keeps its own digest, so restore still
     refuses the checkpoint once that digest is taken. *)
  let other_prog = Program.of_layout toy_layout ~capacities:[ (0, 5); (1, 3) ] in
  let other =
    Block_store.create ~latency:Latency.immediate ~program:other_prog toy_files
  in
  Alcotest.(check bool) "digests differ" true
    (Block_store.program_digest other <> d);
  match
    Server.restore ~plan:(Plan.explicit (Program.schedule other_prog)) other c
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "digest mismatch must be refused"

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

let test_scenario_suite_green () =
  List.iter
    (fun r ->
      if not (Scenario.ok r) then
        Alcotest.failf "scenario %s violated invariants:@ %a" r.Scenario.spec.Scenario.name
          Scenario.pp_report r)
    (List.map Scenario.run (Scenario.suite ()))

let test_scenario_crash_reports_recovery () =
  let r =
    Scenario.run
      (List.find
         (fun s -> s.Scenario.name = "crash-early")
         (Scenario.suite ()))
  in
  check_bool "crash counted" true (r.Scenario.crashes = 1);
  check_bool "recovery time reported" true
    (List.length r.Scenario.recovery_slots = 1);
  check_bool "replayed slots after restart" true (r.Scenario.replayed > 0);
  check_bool "deterministic" true (Scenario.run r.Scenario.spec = r)

let test_scenario_stuck_reader_escalates () =
  let r =
    Scenario.run
      (List.find
         (fun s -> s.Scenario.name = "stuck-reader")
         (Scenario.suite ()))
  in
  check_bool "invariants hold" true (Scenario.ok r);
  check_bool "stall drove the controller off baseline" true
    r.Scenario.escalated;
  check_bool "stuck window faulted slots" true (r.Scenario.faulted >= 30)

let () =
  Alcotest.run "store"
    [
      ( "latency",
        [
          Alcotest.test_case "pure in (read id, slot)" `Quick test_latency_pure;
          Alcotest.test_case "stuck window" `Quick test_latency_stuck_window;
          Alcotest.test_case "validation" `Quick test_latency_validation;
        ] );
      ( "block_store",
        [
          Alcotest.test_case "ready + block cycling" `Quick
            test_store_ready_and_cycling;
          Alcotest.test_case "late, failed, overflow" `Quick
            test_store_late_failed_overflow;
          Alcotest.test_case "validation" `Quick test_store_validation;
        ] );
      ( "server",
        [
          Alcotest.test_case "matches on_air" `Quick test_server_matches_on_air;
          Alcotest.test_case "late reads fault slots" `Quick
            test_server_late_reads_fault_slots;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "json round trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "file round trip" `Quick
            test_checkpoint_file_roundtrip;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash-restart determinism" `Quick
            test_crash_restart_determinism;
          Alcotest.test_case "restore rejects mismatch" `Quick
            test_restore_rejects_mismatch;
          Alcotest.test_case "program digest kept" `Quick
            test_program_digest_kept;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "suite green" `Quick test_scenario_suite_green;
          Alcotest.test_case "crash reports recovery" `Quick
            test_scenario_crash_reports_recovery;
          Alcotest.test_case "stuck reader escalates" `Quick
            test_scenario_stuck_reader_escalates;
        ] );
    ]
