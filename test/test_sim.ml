module Program = Pindisk.Program
module Bounds = Pindisk.Bounds
module Fault = Pindisk_sim.Fault
module Client = Pindisk_sim.Client
module Adversary = Pindisk_sim.Adversary
module Experiment = Pindisk_sim.Experiment

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* [Client.retrieve] on a request the test knows to be well-formed. *)
let retrieve_ok ?max_slots ?report ~program ~file ~needed ~start ~fault () =
  match
    Client.retrieve ?max_slots ?report ~program ~file ~needed ~start ~fault ()
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "unexpected error: %a" Client.pp_error e

let toy_layout =
  [ (0, 0); (1, 0); (0, 1); (0, 2); (1, 1); (0, 3); (1, 2); (0, 4) ]

let toy_flat () = Program.of_layout toy_layout ~capacities:[ (0, 5); (1, 3) ]
let toy_ida () = Program.of_layout toy_layout ~capacities:[ (0, 10); (1, 6) ]

(* ------------------------------------------------------------------ *)
(* Fault                                                               *)
(* ------------------------------------------------------------------ *)

let test_fault_none () =
  let f = Fault.none () in
  for _ = 1 to 100 do
    check_bool "never loses" false (Fault.advance f)
  done

let test_fault_deterministic () =
  let f = Fault.deterministic (fun t -> t mod 3 = 1) in
  Alcotest.(check (list bool)) "scripted" [ false; true; false; false; true ]
    (List.init 5 (fun _ -> Fault.advance f));
  Fault.reset_to f 1;
  check_bool "reset re-anchors" true (Fault.advance f)

let test_fault_bernoulli_reproducible () =
  let f1 = Fault.bernoulli ~p:0.3 ~seed:7 in
  let f2 = Fault.bernoulli ~p:0.3 ~seed:7 in
  let a = List.init 200 (fun _ -> Fault.advance f1) in
  let b = List.init 200 (fun _ -> Fault.advance f2) in
  check_bool "same seed, same losses" true (a = b);
  Fault.reset_to f1 0;
  let a' = List.init 200 (fun _ -> Fault.advance f1) in
  check_bool "reset replays" true (a = a')

let test_fault_bernoulli_rate () =
  let f = Fault.bernoulli ~p:0.25 ~seed:42 in
  let n = 20_000 in
  let losses = ref 0 in
  for _ = 1 to n do
    if Fault.advance f then incr losses
  done;
  let rate = float_of_int !losses /. float_of_int n in
  check_bool "empirical rate near 0.25" true (abs_float (rate -. 0.25) < 0.02);
  Alcotest.(check (float 1e-9)) "declared rate" 0.25 (Fault.loss_rate f)

let test_fault_burst_stationary_rate () =
  let f =
    Fault.burst ~p_good_to_bad:0.1 ~p_bad_to_good:0.4 ~loss_good:0.0
      ~loss_bad:0.5 ~seed:1
  in
  (* pi_bad = 0.1 / 0.5 = 0.2; rate = 0.2 * 0.5 = 0.1. *)
  Alcotest.(check (float 1e-9)) "stationary rate" 0.1 (Fault.loss_rate f);
  let n = 50_000 in
  let losses = ref 0 in
  for _ = 1 to n do
    if Fault.advance f then incr losses
  done;
  let rate = float_of_int !losses /. float_of_int n in
  check_bool "empirical near stationary" true (abs_float (rate -. 0.1) < 0.02)

let test_fault_validation () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Fault.bernoulli: p must be in [0, 1]") (fun () ->
      ignore (Fault.bernoulli ~p:1.5 ~seed:0))

let test_fault_reset_to_determinism () =
  (* Regression: [reset_to] must re-anchor the process deterministically —
     the same slot always replays the identical loss sequence, whatever
     state (RNG stream, burst good/bad) the process wandered into before
     the reset. The adaptive driver's channel scripts rely on this. *)
  let record f n = List.init n (fun _ -> Fault.advance f) in
  let check_replay name mk =
    let f = mk () in
    ignore (record f 137);
    (* wander into an arbitrary interior state *)
    Fault.reset_to f 137;
    let a = record f 200 in
    Fault.reset_to f 137;
    let b = record f 200 in
    check_bool (name ^ ": same process replays from the same slot") true
      (a = b);
    let g = mk () in
    Fault.reset_to g 137;
    let c = record g 200 in
    check_bool (name ^ ": fresh process agrees") true (a = c)
  in
  check_replay "bernoulli" (fun () -> Fault.bernoulli ~p:0.3 ~seed:11);
  check_replay "burst" (fun () ->
      Fault.burst ~p_good_to_bad:0.2 ~p_bad_to_good:0.3 ~loss_good:0.05
        ~loss_bad:0.6 ~seed:11)

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

let test_client_error_free () =
  let p = toy_ida () in
  (* Tuning in at slot 0, file A needs 5 distinct blocks: occurrences at
     0,2,3,5,7 -> done at slot 7, elapsed 8. *)
  let o = retrieve_ok ~program:p ~file:0 ~needed:5 ~start:0 ~fault:(Fault.none ()) () in
  Alcotest.(check (option int)) "completed at 7" (Some 7) o.Client.completed_at;
  Alcotest.(check (option int)) "elapsed 8" (Some 8) o.Client.elapsed;
  check_int "receptions" 5 o.Client.receptions;
  check_int "losses" 0 o.Client.losses

let test_client_b_from_slot_2 () =
  let p = toy_ida () in
  (* File B occurrences at 1,4,6 (blocks B1,B2,B3). From slot 2: B at 4, 6,
     9 -> elapsed 8. *)
  let o = retrieve_ok ~program:p ~file:1 ~needed:3 ~start:2 ~fault:(Fault.none ()) () in
  Alcotest.(check (option int)) "completed at 9" (Some 9) o.Client.completed_at;
  Alcotest.(check (option int)) "elapsed 8" (Some 8) o.Client.elapsed

let test_client_single_loss_ida_vs_flat () =
  (* Lose the very first A reception. With IDA the replacement is the next
     A block (2 slots later); without IDA block A1 only returns a full
     period later. *)
  let lose_first = Fault.deterministic (fun t -> t = 0) in
  let o_ida =
    retrieve_ok ~program:(toy_ida ()) ~file:0 ~needed:5 ~start:0 ~fault:lose_first ()
  in
  Alcotest.(check (option int)) "ida: done at 8" (Some 8) o_ida.Client.completed_at;
  check_int "one loss" 1 o_ida.Client.losses;
  let lose_first' = Fault.deterministic (fun t -> t = 0) in
  let o_flat =
    retrieve_ok ~program:(toy_flat ()) ~file:0 ~needed:5 ~start:0 ~fault:lose_first' ()
  in
  (* A1 returns at slot 8. *)
  Alcotest.(check (option int)) "flat: done at 8" (Some 8) o_flat.Client.completed_at

let test_client_flat_worst_loss () =
  (* Losing the LAST needed block of the flat program costs a full period:
     A5 at slot 7 lost -> A5 returns at slot 15. *)
  let lose = Fault.deterministic (fun t -> t = 7) in
  let o =
    retrieve_ok ~program:(toy_flat ()) ~file:0 ~needed:5 ~start:0 ~fault:lose ()
  in
  Alcotest.(check (option int)) "done at 15" (Some 15) o.Client.completed_at;
  (* Same loss under IDA: A6 arrives at slot 8. *)
  let lose' = Fault.deterministic (fun t -> t = 7) in
  let o' =
    retrieve_ok ~program:(toy_ida ()) ~file:0 ~needed:5 ~start:0 ~fault:lose' ()
  in
  Alcotest.(check (option int)) "ida done at 8" (Some 8) o'.Client.completed_at

let test_client_max_slots () =
  let all_lost = Fault.deterministic (fun _ -> true) in
  let o =
    retrieve_ok ~max_slots:50 ~program:(toy_ida ()) ~file:0 ~needed:5 ~start:0
      ~fault:all_lost ()
  in
  check_bool "never completes" true (o.Client.completed_at = None);
  check_bool "deadline missed" false (Client.deadline_met o ~deadline:1000)

let check_client_error = Alcotest.(check (result reject (of_pp Client.pp_error)))

let test_client_retrieve_checked () =
  (* A request the client could never serve is a typed error... *)
  check_client_error "unknown file" (Error Client.Unknown_file)
    (Client.retrieve ~program:(toy_flat ()) ~file:9 ~needed:1 ~start:0
       ~fault:(Fault.none ()) ());
  check_client_error "needed beyond capacity"
    (Error (Client.Needed_exceeds_capacity 5))
    (Client.retrieve ~program:(toy_flat ()) ~file:0 ~needed:6 ~start:0
       ~fault:(Fault.none ()) ());
  check_client_error "needed below one"
    (Error (Client.Bad_request "needed must be >= 1"))
    (Client.retrieve ~program:(toy_flat ()) ~file:0 ~needed:0 ~start:0
       ~fault:(Fault.none ()) ());
  check_client_error "negative start" (Error (Client.Bad_request "negative start"))
    (Client.retrieve ~program:(toy_flat ()) ~file:0 ~needed:5 ~start:(-1)
       ~fault:(Fault.none ()) ());
  (* ...and a well-formed one is the plain simulation: file A's five
     distinct blocks air at 0,2,3,5,7. *)
  match
    Client.retrieve ~program:(toy_flat ()) ~file:0 ~needed:5 ~start:0
      ~fault:(Fault.none ()) ()
  with
  | Error e -> Alcotest.failf "unexpected error: %a" Client.pp_error e
  | Ok o ->
      Alcotest.(check (option int)) "completed at 7" (Some 7) o.Client.completed_at;
      check_int "receptions" 5 o.Client.receptions;
      check_int "losses" 0 o.Client.losses

let test_client_validation () =
  (* The population runners turn the client's typed errors into the
     Invalid_argument they document. *)
  let bad = [ { Pindisk_sim.Workload.issued = 0; file = 9; needed = 1; deadline = 5 } ] in
  Alcotest.check_raises "Engine.run raises"
    (Invalid_argument "Engine.run: file not in program") (fun () ->
      ignore
        (Pindisk_sim.Engine.run ~program:(toy_flat ())
           ~fault:(fun ~seed:_ -> Fault.none ()) ~seed:0 bad));
  Alcotest.check_raises "Experiment.run raises"
    (Invalid_argument "Experiment.run: needed exceeds the file's capacity")
    (fun () ->
      ignore
        (Experiment.run ~program:(toy_flat ()) ~file:0 ~needed:6 ~deadline:5
           ~fault:(fun ~seed:_ -> Fault.none ()) ~trials:1 ~seed:0 ()))

let test_client_report_hook () =
  let p = toy_ida () in
  let reports = ref [] in
  let report ~slot ~file ~lost = reports := (slot, file, lost) :: !reports in
  let o =
    retrieve_ok ~report ~program:p ~file:0 ~needed:5 ~start:0
      ~fault:(Fault.deterministic (fun t -> t = 0)) ()
  in
  let reports = List.rev !reports in
  check_bool "retrieval completed" true (o.Client.completed_at <> None);
  (* The toy layout is busy every slot; slot 0's A block is lost, so the
     client watches one extra slot past the error-free 8. *)
  check_int "one report per busy slot watched" 9 (List.length reports);
  List.iteri
    (fun i (slot, file, lost) ->
      check_int "reports are in slot order" i slot;
      check_bool "loss verdict reported" (slot = 0) lost;
      match Program.block_at p slot with
      | Some (f, _) -> check_int "reported file matches the air" f file
      | None -> Alcotest.fail "report on an idle slot")
    reports;
  check_bool "other files' slots reported too" true
    (List.exists (fun (_, f, _) -> f = 1) reports)

(* ------------------------------------------------------------------ *)
(* Adversary                                                           *)
(* ------------------------------------------------------------------ *)

let test_adversary_error_free_matches_lemma () =
  (* Error-free worst-case retrieval of the toy files is one period. *)
  check_int "A error-free" 8
    (Adversary.worst_case_retrieval (toy_ida ()) ~file:0 ~needed:5 ~errors:0);
  check_int "B error-free" 8
    (Adversary.worst_case_retrieval (toy_ida ()) ~file:1 ~needed:3 ~errors:0)

let test_adversary_flat_is_lemma1_tight () =
  (* Figure 7, "Without IDA" column: delay is exactly r * tau = 8r. *)
  let p = toy_flat () in
  List.iter
    (fun r ->
      check_int
        (Printf.sprintf "flat delay r=%d" r)
        (Bounds.lemma1 ~period:8 ~errors:r)
        (Adversary.worst_case_delay p ~file:0 ~needed:5 ~errors:r))
    [ 0; 1; 2; 3; 4; 5 ]

let test_adversary_ida_beats_flat () =
  let ida = toy_ida () and flat = toy_flat () in
  List.iter
    (fun r ->
      let d_ida = Adversary.worst_case_delay ida ~file:0 ~needed:5 ~errors:r in
      let d_flat = Adversary.worst_case_delay flat ~file:0 ~needed:5 ~errors:r in
      check_bool (Printf.sprintf "ida <= flat at r=%d" r) true (d_ida <= d_flat))
    [ 1; 2; 3; 4; 5 ]

let test_adversary_lemma2_bound_within_redundancy () =
  (* Lemma 2: delay <= r * Delta, valid while r <= capacity - needed (AIDA
     provides r spare blocks). File A: Delta = 2, spare = 5. *)
  let ida = toy_ida () in
  List.iter
    (fun r ->
      let d = Adversary.worst_case_delay ida ~file:0 ~needed:5 ~errors:r in
      check_bool
        (Printf.sprintf "A delay %d <= 2r at r=%d" d r)
        true
        (d <= Bounds.lemma2 ~delta:2 ~errors:r))
    [ 0; 1; 2; 3; 4; 5 ];
  (* File B: Delta = 3, spare = 3: bound holds for r <= 3... *)
  List.iter
    (fun r ->
      let d = Adversary.worst_case_delay ida ~file:1 ~needed:3 ~errors:r in
      check_bool
        (Printf.sprintf "B delay %d <= 3r at r=%d" d r)
        true
        (d <= Bounds.lemma2 ~delta:3 ~errors:r))
    [ 0; 1; 2; 3 ];
  (* ... and genuinely breaks beyond the redundancy (r = 4 > spare): the
     client must wait for a repeat. This is the implicit AIDA assumption in
     the lemma. *)
  let d4 = Adversary.worst_case_delay ida ~file:1 ~needed:3 ~errors:4 in
  check_bool "beyond redundancy the bound fails" true
    (d4 > Bounds.lemma2 ~delta:3 ~errors:4)

let test_adversary_dominates_random_clients () =
  (* No stochastic run may ever exceed the adversarial worst case with the
     same number of losses. *)
  let p = toy_ida () in
  let rng = Random.State.make [| 99 |] in
  for _ = 1 to 200 do
    let start = Random.State.int rng 16 in
    let seed = Random.State.int rng 10_000 in
    let fault = Fault.bernoulli ~p:0.2 ~seed in
    let o = retrieve_ok ~program:p ~file:0 ~needed:5 ~start ~fault () in
    match (o.Client.elapsed, o.Client.losses) with
    | Some e, losses when losses <= 5 ->
        let wc = Adversary.worst_case_retrieval p ~file:0 ~needed:5 ~errors:losses in
        check_bool "bounded by adversary" true (e <= wc)
    | _ -> ()
  done

let test_adversary_validation () =
  Alcotest.check_raises "capacity too large"
    (Invalid_argument "Adversary: capacity 30 exceeds the supported 20")
    (fun () ->
      let p = Program.of_layout [ (0, 0) ] ~capacities:[ (0, 30) ] in
      ignore (Adversary.worst_case_retrieval p ~file:0 ~needed:1 ~errors:0))

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)
(* ------------------------------------------------------------------ *)

module Transport = Pindisk_sim.Transport
module Ida = Pindisk_ida.Ida

let toy_transport () =
  Transport.create ~program:(toy_ida ())
    [
      (0, 5, Bytes.of_string "intelligent vehicle highway system db");
      (1, 3, Bytes.of_string "awacs feed");
    ]

let test_transport_on_air () =
  let t = toy_transport () in
  (match Transport.on_air t 0 with
  | Some (0, piece) -> check_int "slot 0 carries A piece 0" 0 piece.Ida.index
  | _ -> Alcotest.fail "slot 0 is file A");
  (match Transport.on_air t 8 with
  | Some (0, piece) -> check_int "slot 8 carries A piece 5" 5 piece.Ida.index
  | _ -> Alcotest.fail "slot 8 is file A");
  Alcotest.(check (option int)) "m for A" (Some 5) (Transport.find_source_blocks t 0)

let test_transport_roundtrip_error_free () =
  let t = toy_transport () in
  (match Transport.retrieve t ~file:0 ~start:3 ~fault:(Fault.none ()) () with
  | Ok bytes ->
      Alcotest.(check string) "bytes back" "intelligent vehicle highway system db"
        (Bytes.to_string bytes)
  | Error _ -> Alcotest.fail "retrieval must complete");
  match Transport.retrieve t ~file:1 ~start:5 ~fault:(Fault.none ()) () with
  | Ok bytes -> Alcotest.(check string) "B back" "awacs feed" (Bytes.to_string bytes)
  | Error _ -> Alcotest.fail "retrieval must complete"

let test_transport_roundtrip_under_loss () =
  let t = toy_transport () in
  (* 20% iid loss: IDA redundancy still reconstructs, bit-exact. *)
  for seed = 0 to 19 do
    match
      Transport.retrieve t ~file:0 ~start:(seed mod 16)
        ~fault:(Fault.bernoulli ~p:0.2 ~seed) ()
    with
    | Ok bytes ->
        Alcotest.(check string) "bit-exact under loss"
          "intelligent vehicle highway system db" (Bytes.to_string bytes)
    | Error _ -> Alcotest.fail "20% loss must not exhaust 100 data cycles"
  done

let test_transport_validation () =
  Alcotest.check_raises "missing content"
    (Invalid_argument "Transport.create: no content for file 1") (fun () ->
      ignore
        (Transport.create ~program:(toy_ida ()) [ (0, 5, Bytes.of_string "x") ]));
  Alcotest.check_raises "m beyond capacity"
    (Invalid_argument "Transport.create: need 1 <= m <= capacity") (fun () ->
      ignore
        (Transport.create ~program:(toy_ida ())
           [ (0, 11, Bytes.of_string "x"); (1, 3, Bytes.of_string "y") ]))

let test_transport_report_hook () =
  let run () =
    let t = toy_transport () in
    let count = ref 0 and losses = ref 0 in
    let report ~slot:_ ~file:_ ~lost =
      incr count;
      if lost then incr losses
    in
    match
      Transport.retrieve t ~report ~file:0 ~start:0
        ~fault:(Fault.bernoulli ~p:0.3 ~seed:13) ()
    with
    | Ok bytes ->
        Alcotest.(check string) "payload still bit-exact"
          "intelligent vehicle highway system db" (Bytes.to_string bytes);
        (!count, !losses)
    | Error _ -> Alcotest.fail "retrieval must complete"
  in
  let count, losses = run () in
  check_bool "at least m busy slots reported" true (count >= 5);
  check_bool "the lossy channel shows up in the reports" true (losses > 0);
  let count', losses' = run () in
  check_int "report stream deterministic (count)" count count';
  check_int "report stream deterministic (losses)" losses losses'

(* ------------------------------------------------------------------ *)
(* Experiment                                                          *)
(* ------------------------------------------------------------------ *)

let test_experiment_error_free () =
  let s =
    Experiment.run ~program:(toy_ida ()) ~file:0 ~needed:5 ~deadline:8
      ~fault:(fun ~seed:_ -> Fault.none ())
      ~trials:100 ~seed:5 ()
  in
  check_int "all complete" 100 s.Experiment.completed;
  check_int "no misses at deadline 8" 0 s.Experiment.missed_deadline;
  check_bool "mean within [5, 8]" true
    (s.Experiment.mean_latency >= 5.0 && s.Experiment.mean_latency <= 8.0)

let test_experiment_lossy_monotone () =
  (* Higher loss rates cannot improve the miss ratio (statistically; use
     well-separated rates and plenty of trials). *)
  let run p_loss =
    Experiment.run ~program:(toy_ida ()) ~file:0 ~needed:5 ~deadline:10
      ~fault:(fun ~seed -> Fault.bernoulli ~p:p_loss ~seed)
      ~trials:400 ~seed:11 ()
  in
  let low = run 0.05 and high = run 0.5 in
  check_bool "monotone misses" true
    (Experiment.miss_ratio low <= Experiment.miss_ratio high +. 1e-9);
  check_bool "reproducible" true (run 0.05 = low)

let test_experiment_ida_beats_flat_under_loss () =
  let run program =
    Experiment.run ~program ~file:0 ~needed:5 ~deadline:12
      ~fault:(fun ~seed -> Fault.bernoulli ~p:0.15 ~seed)
      ~trials:500 ~seed:23 ()
  in
  let ida = run (toy_ida ()) and flat = run (toy_flat ()) in
  check_bool "ida misses fewer deadlines" true
    (Experiment.miss_ratio ida <= Experiment.miss_ratio flat)

(* ------------------------------------------------------------------ *)
(* Transaction                                                         *)
(* ------------------------------------------------------------------ *)

module Transaction = Pindisk_sim.Transaction

let both_reads =
  [
    { Transaction.file = 0; needed = 5; tolerate = 0 };
    { Transaction.file = 1; needed = 3; tolerate = 0 };
  ]

let test_transaction_concurrent_harvest () =
  (* One pass over the toy program collects BOTH files: from slot 0, A
     finishes at slot 7 and B at slot 6, so the transaction finishes at
     slot 7 -- not the 15 a sequential reader would need. *)
  let p = toy_ida () in
  let o =
    Transaction.retrieve ~program:p ~reads:both_reads ~start:0
      ~fault:(Fault.none ()) ()
  in
  Alcotest.(check (option int)) "done at 7" (Some 7) o.Transaction.completed_at;
  Alcotest.(check (option int)) "elapsed 8" (Some 8) o.Transaction.elapsed

let test_transaction_worst_case_is_max_not_sum () =
  let p = toy_ida () in
  let wc = Transaction.worst_case p ~reads:both_reads in
  let wa = Adversary.worst_case_retrieval p ~file:0 ~needed:5 ~errors:0 in
  let wb = Adversary.worst_case_retrieval p ~file:1 ~needed:3 ~errors:0 in
  check_bool "at least each read's worst case" true (wc >= max wa wb);
  check_bool "well below the sum" true (wc < wa + wb);
  check_bool "guaranteed at its worst case" true
    (Transaction.guaranteed p ~reads:both_reads ~deadline:wc);
  check_bool "not guaranteed below it" false
    (Transaction.guaranteed p ~reads:both_reads ~deadline:(wc - 1))

let test_transaction_worst_case_dominates_simulation () =
  let p = toy_ida () in
  let reads =
    [
      { Transaction.file = 0; needed = 5; tolerate = 2 };
      { Transaction.file = 1; needed = 3; tolerate = 1 };
    ]
  in
  let wc = Transaction.worst_case p ~reads in
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 150 do
    let start = Random.State.int rng 16 in
    let o =
      Transaction.retrieve ~program:p ~reads ~start
        ~fault:(Fault.bernoulli ~p:0.1 ~seed:(Random.State.int rng 99999)) ()
    in
    (* Only runs whose per-file losses stay within the budgets are
       covered by the guarantee; losses are per-channel here so use the
       total as a conservative filter. *)
    match o.Transaction.elapsed with
    | Some e when o.Transaction.losses <= 1 ->
        check_bool "within worst case" true (e <= wc)
    | _ -> ()
  done

let test_transaction_shared_budget () =
  let p = toy_ida () in
  (* Zero shared budget = the fault-free joint worst case. *)
  check_int "shared 0 = per-file 0"
    (Transaction.worst_case p ~reads:both_reads)
    (Transaction.worst_case_shared p ~reads:both_reads ~errors:0);
  (* A shared budget dominates any split of the same total. *)
  let shared = Transaction.worst_case_shared p ~reads:both_reads ~errors:3 in
  List.iter
    (fun (ra, rb) ->
      let split =
        Transaction.worst_case p
          ~reads:
            [
              { Transaction.file = 0; needed = 5; tolerate = ra };
              { Transaction.file = 1; needed = 3; tolerate = rb };
            ]
      in
      check_bool
        (Printf.sprintf "shared >= split (%d,%d)" ra rb)
        true (shared >= split))
    [ (0, 3); (1, 2); (2, 1); (3, 0) ];
  check_bool "shared grows with budget" true
    (Transaction.worst_case_shared p ~reads:both_reads ~errors:1 <= shared)

let test_transaction_validation () =
  let p = toy_ida () in
  Alcotest.check_raises "duplicate files" (Invalid_argument "Transaction: duplicate files")
    (fun () ->
      ignore
        (Transaction.worst_case p
           ~reads:
             [
               { Transaction.file = 0; needed = 1; tolerate = 0 };
               { Transaction.file = 0; needed = 2; tolerate = 0 };
             ]));
  Alcotest.check_raises "empty" (Invalid_argument "Transaction: empty read set")
    (fun () -> ignore (Transaction.worst_case p ~reads:[]))

let test_transaction_starved () =
  let p = toy_ida () in
  let o =
    Transaction.retrieve ~max_slots:30 ~program:p ~reads:both_reads ~start:0
      ~fault:(Fault.deterministic (fun _ -> true)) ()
  in
  check_bool "never completes under total loss" true (o.Transaction.elapsed = None)

(* ------------------------------------------------------------------ *)
(* Workload + Engine                                                   *)
(* ------------------------------------------------------------------ *)

module Workload = Pindisk_sim.Workload
module Engine = Pindisk_sim.Engine
module Stats = Pindisk_util.Stats

let trace_for program =
  Workload.generate ~program ~rate:0.2 ~theta:0.8
    ~needed_of:(fun f -> if f = 0 then 5 else 3)
    ~deadline_of:(fun f -> if f = 0 then 10 else 12)
    ~horizon:2000 ~seed:4

let test_workload_deterministic_and_sorted () =
  let p = toy_ida () in
  let t1 = trace_for p and t2 = trace_for p in
  check_bool "deterministic" true (t1 = t2);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Workload.issued <= b.Workload.issued && sorted rest
    | _ -> true
  in
  check_bool "sorted by issue slot" true (sorted t1);
  check_bool "non-empty" true (List.length t1 > 200);
  List.iter
    (fun r ->
      check_bool "within horizon" true (r.Workload.issued < 2000);
      check_bool "known file" true (List.mem r.Workload.file [ 0; 1 ]))
    t1

let test_workload_rate_scales () =
  let p = toy_ida () in
  let at rate =
    List.length
      (Workload.generate ~program:p ~rate ~theta:0.5
         ~needed_of:(fun _ -> 1)
         ~deadline_of:(fun _ -> 10)
         ~horizon:5000 ~seed:7)
  in
  let low = at 0.05 and high = at 0.4 in
  check_bool "rate scales volume" true (high > 4 * low)

let test_workload_zipf_skew () =
  let p = toy_ida () in
  let trace =
    Workload.generate ~program:p ~rate:0.5 ~theta:1.2
      ~needed_of:(fun _ -> 1)
      ~deadline_of:(fun _ -> 10)
      ~horizon:8000 ~seed:13
  in
  let count f = List.length (List.filter (fun r -> r.Workload.file = f) trace) in
  check_bool "file 0 hotter than file 1" true (count 0 > count 1)

let test_engine_error_free_all_meet () =
  let p = toy_ida () in
  (* Error-free worst cases are 8 slots; deadlines 10/12 are met always. *)
  let r =
    Engine.run ~program:p ~fault:(fun ~seed:_ -> Fault.none ()) ~seed:0
      (trace_for p)
  in
  check_int "no misses" 0 r.Engine.missed;
  check_int "all completed" r.Engine.requests r.Engine.completed;
  check_bool "latency bounded by worst case" true
    (Stats.max_value r.Engine.latency <= 8.0);
  check_int "two files tracked" 2 (List.length r.Engine.per_file)

let test_engine_per_file_consistency () =
  let p = toy_ida () in
  let r =
    Engine.run ~program:p
      ~fault:(fun ~seed -> Fault.bernoulli ~p:0.2 ~seed)
      ~seed:5 (trace_for p)
  in
  let sum_req =
    List.fold_left
      (fun acc (f : Engine.file_stats) -> acc + f.Engine.requests)
      0 r.Engine.per_file
  in
  let sum_miss =
    List.fold_left
      (fun acc (f : Engine.file_stats) -> acc + f.Engine.missed)
      0 r.Engine.per_file
  in
  check_int "per-file requests sum" r.Engine.requests sum_req;
  check_int "per-file misses sum" r.Engine.missed sum_miss;
  check_bool "losses happened" true (r.Engine.losses > 0)

let test_engine_loss_monotone () =
  let p = toy_ida () in
  let miss loss =
    Engine.miss_ratio
      (Engine.run ~program:p
         ~fault:(fun ~seed -> Fault.bernoulli ~p:loss ~seed)
         ~seed:5 (trace_for p))
  in
  check_bool "misses grow with loss" true (miss 0.05 <= miss 0.4 +. 1e-9)

let test_engine_file_miss_ratio () =
  let p = toy_ida () in
  let r =
    Engine.run ~program:p
      ~fault:(fun ~seed -> Fault.bernoulli ~p:0.35 ~seed)
      ~seed:9 (trace_for p)
  in
  List.iter
    (fun (f : Engine.file_stats) ->
      let ratio = Engine.file_miss_ratio f in
      Alcotest.(check (float 1e-9)) "ratio is missed / requests"
        (if f.Engine.requests = 0 then 0.0
         else float_of_int f.Engine.missed /. float_of_int f.Engine.requests)
        ratio;
      check_bool "ratio in [0, 1]" true (0.0 <= ratio && ratio <= 1.0))
    r.Engine.per_file

let test_engine_pp_result_lists_per_file_ratios () =
  let p = toy_ida () in
  let r =
    Engine.run ~program:p
      ~fault:(fun ~seed -> Fault.bernoulli ~p:0.35 ~seed)
      ~seed:9 (trace_for p)
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
    scan 0
  in
  let rendered = Format.asprintf "%a" Engine.pp_result r in
  List.iter
    (fun (f : Engine.file_stats) ->
      let line = Format.asprintf "%a" Engine.pp_file_stats f in
      check_bool "file line carries the percentage" true
        (String.contains line '%');
      check_bool "summary embeds every per-file line" true
        (contains rendered line))
    r.Engine.per_file

(* ------------------------------------------------------------------ *)
(* Cohort: the production population engine, against the Engine oracle *)
(* ------------------------------------------------------------------ *)

module Cohort = Pindisk_sim.Cohort
module Pw = Pindisk_pinwheel

let stats_eq label (a : Stats.t) (b : Stats.t) =
  check_int (label ^ " count") (Stats.count a) (Stats.count b);
  if Stats.count a > 0 then begin
    Alcotest.(check (float 0.0)) (label ^ " total") (Stats.total a) (Stats.total b);
    Alcotest.(check (float 0.0)) (label ^ " min") (Stats.min_value a) (Stats.min_value b);
    Alcotest.(check (float 0.0)) (label ^ " max") (Stats.max_value a) (Stats.max_value b);
    Alcotest.(check (float 0.0)) (label ^ " median") (Stats.median a) (Stats.median b)
  end

let result_eq (a : Engine.result) (b : Engine.result) =
  check_int "requests" a.Engine.requests b.Engine.requests;
  check_int "completed" a.Engine.completed b.Engine.completed;
  check_int "missed" a.Engine.missed b.Engine.missed;
  check_int "losses" a.Engine.losses b.Engine.losses;
  stats_eq "latency" a.Engine.latency b.Engine.latency;
  check_int "per-file count" (List.length a.Engine.per_file)
    (List.length b.Engine.per_file);
  List.iter2
    (fun (fa : Engine.file_stats) (fb : Engine.file_stats) ->
      check_int "file" fa.Engine.file fb.Engine.file;
      check_int "file requests" fa.Engine.requests fb.Engine.requests;
      check_int "file missed" fa.Engine.missed fb.Engine.missed;
      stats_eq "file latency" fa.Engine.latency fb.Engine.latency)
    a.Engine.per_file b.Engine.per_file

(* A dyadic 4-file broadcast system (density 1/2) whose plan and program
   are two views of the same construction. *)
let dyadic_plan_and_program () =
  let sys =
    [ Pw.Task.unit ~id:0 ~b:4; Pw.Task.unit ~id:1 ~b:8;
      Pw.Task.unit ~id:2 ~b:16; Pw.Task.unit ~id:3 ~b:16 ]
  in
  let plan =
    match Pw.Scheduler.plan sys with
    | Some p -> p
    | None -> Alcotest.fail "dyadic density-1/2 system schedules"
  in
  let capacities = [ (0, 4); (1, 2); (2, 2); (3, 1) ] in
  (plan, Program.make ~schedule:(Pw.Plan.to_schedule plan) ~capacities,
   capacities)

(* The toy layout with both files' block cycles starting mid-way (file 0
   at block 3, file 1 at block 4): Engine reads the phased block indices,
   Cohort counts from 0, and a constant shift must not change a result. *)
let toy_phased () =
  Program.of_layout
    [ (0, 3); (1, 4); (0, 4); (0, 5); (1, 5); (0, 6); (1, 0); (0, 7) ]
    ~capacities:[ (0, 10); (1, 6) ]

(* Four program shapes for the equivalence matrix: the dyadic pinwheel
   plan plus three toy layouts replayed through explicit plans. *)
let cohort_systems () =
  let dyadic =
    let plan, program, capacities = dyadic_plan_and_program () in
    ("dyadic", plan, program, capacities,
     List.concat_map
       (fun k ->
         let file = k mod 4 in
         [
           { Workload.issued = (3 * k) + (k mod 2); file;
             needed = (if file = 0 then 2 else 1); deadline = 40 };
           (* A hopeless deadline, to exercise the missed path. *)
           { Workload.issued = (3 * k) + 1; file; needed = 1; deadline = 0 };
         ])
       (List.init 12 Fun.id))
  in
  let of_program name program needed_of =
    let plan = Pw.Plan.explicit (Program.schedule program) in
    let capacities =
      List.map (fun f -> (f, Program.capacity program f)) (Program.files program)
    in
    (name, plan, program, capacities,
     List.concat_map
       (fun k ->
         let file = k mod 2 in
         [
           { Workload.issued = 2 * k; file; needed = needed_of file;
             deadline = 30 };
           { Workload.issued = (2 * k) + 1; file; needed = 1; deadline = 0 };
         ])
       (List.init 10 Fun.id))
  in
  [
    dyadic;
    of_program "flat" (toy_flat ()) (fun file -> if file = 0 then 3 else 2);
    of_program "ida" (toy_ida ()) (fun file -> if file = 0 then 5 else 3);
    of_program "phased" (toy_phased ()) (fun file -> if file = 0 then 5 else 3);
  ]

let cohort_fault_models =
  [
    ("none", fun ~seed:_ -> Fault.none ());
    ("bernoulli", fun ~seed -> Fault.bernoulli ~p:0.25 ~seed);
    ("burst",
     fun ~seed ->
       Fault.burst ~p_good_to_bad:0.15 ~p_bad_to_good:0.35 ~loss_good:0.02
         ~loss_bad:0.6 ~seed);
    ("deterministic", fun ~seed:_ -> Fault.deterministic (fun t -> t mod 7 = 2));
  ]

let test_cohort_run_equals_engine () =
  (* The tentpole pin: sampled-fault Cohort.run reproduces the per-client
     oracle's Engine.result exactly — programs x fault models x seeds. *)
  List.iter
    (fun (_, plan, program, capacities, trace) ->
      List.iter
        (fun (_, fault) ->
          List.iter
            (fun seed ->
              result_eq
                (Engine.run ~program ~fault ~seed trace)
                (Cohort.run ~plan ~capacities ~fault ~seed trace))
            [ 3; 17; 91 ])
        cohort_fault_models)
    (cohort_systems ())

let test_cohort_run_equals_engine_max_slots () =
  let fault ~seed = Fault.bernoulli ~p:0.3 ~seed in
  List.iter
    (fun (_, plan, program, capacities, trace) ->
      List.iter
        (fun max_slots ->
          result_eq
            (Engine.run ~max_slots ~program ~fault ~seed:5 trace)
            (Cohort.run ~max_slots ~plan ~capacities ~fault ~seed:5 trace))
        [ 1; 16; 24; 128 ])
    (cohort_systems ())

let test_cohort_run_validation () =
  let plan, _, capacities = dyadic_plan_and_program () in
  let run ?(capacities = capacities) trace =
    ignore
      (Cohort.run ~plan ~capacities ~fault:(fun ~seed:_ -> Fault.none ())
         ~seed:0 trace)
  in
  let req ?(issued = 0) ?(needed = 1) file =
    { Workload.issued; file; needed; deadline = 5 }
  in
  Alcotest.check_raises "unknown file"
    (Invalid_argument "Cohort.run: file not in plan capacities") (fun () ->
      run [ req 9 ]);
  Alcotest.check_raises "needed beyond capacity"
    (Invalid_argument "Cohort.run: needed exceeds the file's capacity")
    (fun () -> run [ req ~needed:2 3 ]);
  Alcotest.check_raises "negative start"
    (Invalid_argument "Cohort.run: negative start") (fun () ->
      run [ req ~issued:(-1) 0 ]);
  Alcotest.check_raises "never broadcast"
    (Invalid_argument "Cohort.run: file never broadcast") (fun () ->
      run ~capacities:((7, 1) :: capacities) [ req 7 ])

let test_cohort_prep_reuse () =
  let _, plan, _, capacities, trace = List.hd (cohort_systems ()) in
  let fault ~seed = Fault.bernoulli ~p:0.25 ~seed in
  let prep = Cohort.prepare plan in
  result_eq
    (Cohort.run ~plan ~capacities ~fault ~seed:7 trace)
    (Cohort.run ~prep ~plan ~capacities ~fault ~seed:7 trace);
  let classes = Cohort.classes_of_trace ~period:(Pw.Plan.period plan) trace in
  let model = Cohort.Bernoulli { p = 0.25 } in
  result_eq
    (Cohort.run_population ~plan ~capacities ~model ~seed:7 classes)
    (Cohort.run_population ~prep ~plan ~capacities ~model ~seed:7 classes);
  (* A prep from a separately built but equal plan is the same warm-up. *)
  let plan', _, _ = dyadic_plan_and_program () in
  result_eq
    (Cohort.run ~plan ~capacities ~fault ~seed:7 trace)
    (Cohort.run ~prep ~plan:plan' ~capacities ~fault ~seed:7 trace)

let test_cohort_prep_from_other_plan () =
  (* Files 0 and 3 trade places: same period, different broadcast. The
     old prep would hand file 0's slots to file 3 and back, swapping
     their per-file results without a word, so both entry points must
     refuse it. *)
  let plan, _, capacities = dyadic_plan_and_program () in
  let sched = Pw.Plan.to_schedule plan in
  let swapped =
    Pw.Plan.explicit
      (Pw.Schedule.make
         (Array.init (Pw.Schedule.period sched) (fun t ->
              match Pw.Schedule.task_at sched t with
              | 0 -> 3
              | 3 -> 0
              | f -> f)))
  in
  check_int "same period" (Pw.Plan.period plan) (Pw.Plan.period swapped);
  let prep = Cohort.prepare plan in
  let trace =
    List.init 20 (fun k ->
        { Workload.issued = k; file = (if k mod 2 = 0 then 0 else 3);
          needed = 1; deadline = 2 })
  in
  Alcotest.check_raises "run"
    (Invalid_argument "Cohort.run: prep was built from a different plan")
    (fun () ->
      ignore
        (Cohort.run ~prep ~plan:swapped ~capacities
           ~fault:(fun ~seed:_ -> Fault.none ()) ~seed:0 trace));
  Alcotest.check_raises "run_population"
    (Invalid_argument
       "Cohort.run_population: prep was built from a different plan")
    (fun () ->
      ignore
        (Cohort.run_population ~prep ~plan:swapped ~capacities
           ~model:Cohort.No_loss ~seed:0
           (Cohort.classes_of_trace ~period:(Pw.Plan.period plan) trace)))

let test_cohort_classes_of_trace () =
  let _, plan, _, _, trace = List.hd (cohort_systems ()) in
  let period = Pw.Plan.period plan in
  let classes = Cohort.classes_of_trace ~period trace in
  check_int "weights sum to trace length" (List.length trace)
    (List.fold_left (fun acc (c : Cohort.cls) -> acc + c.Cohort.weight) 0 classes);
  let keys = List.map (fun (c : Cohort.cls) -> c.Cohort.key) classes in
  check_bool "canonical order" true (keys = List.sort compare keys);
  List.iter
    (fun (c : Cohort.cls) ->
      check_bool "phase within period" true
        (c.Cohort.key.Cohort.phase >= 0 && c.Cohort.key.Cohort.phase < period))
    classes;
  Alcotest.check_raises "bad period"
    (Invalid_argument "Cohort.classes_of_trace: period must be >= 1") (fun () ->
      ignore (Cohort.classes_of_trace ~period:0 trace))

let test_cohort_population_no_loss_equals_engine () =
  (* With no losses every member of a class completes at the same slot
     distance, so the analytic fold must equal the per-client oracle on
     a trace that realizes the same classes (members spread over period
     echoes of the same phase). *)
  let _, plan, program, capacities, _ = List.hd (cohort_systems ()) in
  let period = Pw.Plan.period plan in
  let trace =
    List.concat_map
      (fun m ->
        [
          { Workload.issued = 2 + (m * period); file = 0; needed = 2;
            deadline = 12 };
          { Workload.issued = 5 + (m * period); file = 1; needed = 2;
            deadline = 3 };
        ])
      (List.init 5 Fun.id)
  in
  let classes = Cohort.classes_of_trace ~period trace in
  result_eq
    (Engine.run ~program ~fault:(fun ~seed:_ -> Fault.none ()) ~seed:0 trace)
    (Cohort.run_population ~plan ~capacities ~model:Cohort.No_loss ~seed:0
       classes)

let test_cohort_population_mass_conservation () =
  let _, plan, _, capacities, trace = List.hd (cohort_systems ()) in
  let period = Pw.Plan.period plan in
  let classes =
    List.map
      (fun (c : Cohort.cls) -> { c with Cohort.weight = c.Cohort.weight * 1000 })
      (Cohort.classes_of_trace ~period trace)
  in
  let population =
    List.fold_left (fun acc (c : Cohort.cls) -> acc + c.Cohort.weight) 0 classes
  in
  let r =
    Cohort.run_population ~plan ~capacities
      ~model:(Cohort.Bernoulli { p = 0.3 })
      ~seed:0 classes
  in
  check_int "every member retired" population r.Engine.requests;
  check_int "completed = latency count" r.Engine.completed
    (Stats.count r.Engine.latency);
  check_bool "missed within population" true
    (r.Engine.missed >= 0 && r.Engine.missed <= population);
  check_int "per-file requests sum to population" population
    (List.fold_left
       (fun acc (f : Engine.file_stats) -> acc + f.Engine.requests)
       0 r.Engine.per_file)

let test_cohort_population_analytic_close_to_sampled () =
  let _, plan, _, capacities, trace = List.hd (cohort_systems ()) in
  let period = Pw.Plan.period plan in
  let classes =
    List.map
      (fun (c : Cohort.cls) -> { c with Cohort.weight = c.Cohort.weight * 500 })
      (Cohort.classes_of_trace ~period trace)
  in
  let model = Cohort.Bernoulli { p = 0.3 } in
  let analytic =
    Cohort.run_population ~plan ~capacities ~model ~seed:11 classes
  in
  let sampled =
    Cohort.run_population ~sampled:true ~plan ~capacities ~model ~seed:11
      classes
  in
  check_int "same population" analytic.Engine.requests sampled.Engine.requests;
  check_bool "miss ratios agree" true
    (abs_float (Engine.miss_ratio analytic -. Engine.miss_ratio sampled) < 0.03);
  check_bool "mean latencies agree" true
    (abs_float
       (Stats.mean analytic.Engine.latency -. Stats.mean sampled.Engine.latency)
     /. Stats.mean sampled.Engine.latency
    < 0.1);
  check_bool "losses agree" true
    (abs_float
       (float_of_int analytic.Engine.losses
       -. float_of_int sampled.Engine.losses)
     /. float_of_int (max 1 sampled.Engine.losses)
    < 0.1)

let test_cohort_population_validation () =
  let _, plan, _, capacities, _ = List.hd (cohort_systems ()) in
  let run classes =
    ignore
      (Cohort.run_population ~plan ~capacities ~model:Cohort.No_loss ~seed:0
         classes)
  in
  let cls ?(file = 0) ?(phase = 0) ?(needed = 1) ?(deadline = 5) weight =
    { Cohort.key = { Cohort.file; phase; needed; deadline }; weight }
  in
  Alcotest.check_raises "phase out of range"
    (Invalid_argument "Cohort.run_population: phase out of [0, period)")
    (fun () -> run [ cls ~phase:(-1) 5 ]);
  Alcotest.check_raises "needed beyond capacity"
    (Invalid_argument "Cohort.run_population: needed exceeds the file's capacity")
    (fun () -> run [ cls ~file:3 ~needed:2 5 ]);
  Alcotest.check_raises "unknown file"
    (Invalid_argument "Cohort.run_population: file not in plan capacities")
    (fun () -> run [ cls ~file:9 5 ]);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Cohort.run_population: negative class weight")
    (fun () -> run [ cls (-1) ])

(* Results compared structurally (bool, for qcheck properties). *)
let result_equal_bool (a : Engine.result) (b : Engine.result) =
  let stats_equal x y =
    Stats.count x = Stats.count y
    && (Stats.count x = 0
       || Stats.total x = Stats.total y
          && Stats.min_value x = Stats.min_value y
          && Stats.max_value x = Stats.max_value y)
  in
  a.Engine.requests = b.Engine.requests
  && a.Engine.completed = b.Engine.completed
  && a.Engine.missed = b.Engine.missed
  && a.Engine.losses = b.Engine.losses
  && stats_equal a.Engine.latency b.Engine.latency
  && List.length a.Engine.per_file = List.length b.Engine.per_file
  && List.for_all2
       (fun (fa : Engine.file_stats) (fb : Engine.file_stats) ->
         fa.Engine.file = fb.Engine.file
         && fa.Engine.requests = fb.Engine.requests
         && fa.Engine.missed = fb.Engine.missed
         && stats_equal fa.Engine.latency fb.Engine.latency)
       a.Engine.per_file b.Engine.per_file

(* qcheck: permuting a trace never changes its class partition, and
   permuting/splitting the class list never changes the population
   result (member fault seeds are content-derived, not index-derived). *)
let prop_cohort_permutation_invariant =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30)
           (quad (int_range 0 3) (int_range 0 40) (int_range 1 2)
              (int_range 0 20)))
        (int_range 0 1000))
  in
  QCheck2.Test.make ~name:"cohort result is permutation-invariant" ~count:40
    gen
    (fun (raw, salt) ->
      let _, plan, _, capacities, _ = List.hd (cohort_systems ()) in
      let period = Pw.Plan.period plan in
      let trace =
        List.map
          (fun (file, issued, needed, deadline) ->
            (* file 3 has capacity 1 in the dyadic system. *)
            let needed = if file = 3 then 1 else needed in
            { Workload.issued; file; needed; deadline })
          raw
      in
      (* A deterministic pseudo-random permutation keyed on the salt. *)
      let permuted =
        List.mapi (fun i r -> (Pindisk_util.Intmath.mix64 (salt + i), r)) trace
        |> List.sort compare |> List.map snd
      in
      let classes = Cohort.classes_of_trace ~period trace in
      let classes' = Cohort.classes_of_trace ~period permuted in
      let model =
        Cohort.Burst
          { p_good_to_bad = 0.2; p_bad_to_good = 0.4; loss_good = 0.05;
            loss_bad = 0.5 }
      in
      let run cs =
        Cohort.run_population ~max_slots:64 ~plan ~capacities ~model ~seed:9 cs
      in
      classes = classes'
      && result_equal_bool (run classes) (run (List.rev classes))
      && result_equal_bool (run classes) (run classes'))

(* ------------------------------------------------------------------ *)
(* Workload.ycsb                                                       *)
(* ------------------------------------------------------------------ *)

let ycsb_program () =
  (* Four files, id order = popularity order. *)
  Program.flat [ (0, 2); (1, 2); (2, 2); (3, 2) ]

let ycsb ?(rate = 0.8) ?(popularity = Workload.Zipfian { theta = 1.2 })
    ?(arrivals = Workload.Steady) ?(horizon = 4000) ?(seed = 42) () =
  Workload.ycsb ~program:(ycsb_program ()) ~rate ~popularity ~arrivals
    ~needed_of:(fun _ -> 1)
    ~deadline_of:(fun _ -> 16)
    ~horizon ~seed

let file_counts trace =
  let counts = Array.make 4 0 in
  List.iter
    (fun (r : Workload.request) ->
      counts.(r.Workload.file) <- counts.(r.Workload.file) + 1)
    trace;
  counts

let test_ycsb_deterministic () =
  let a = ycsb () and b = ycsb () in
  check_bool "same seed, identical trace" true (a = b);
  check_bool "different seed, different trace" true (a <> ycsb ~seed:43 ());
  check_bool "sorted by issue slot" true
    (List.for_all2
       (fun (x : Workload.request) (y : Workload.request) ->
         x.Workload.issued <= y.Workload.issued)
       (List.filteri (fun i _ -> i < List.length a - 1) a)
       (List.tl a));
  List.iter
    (fun (r : Workload.request) ->
      check_bool "slot within horizon" true
        (r.Workload.issued >= 0 && r.Workload.issued < 4000))
    a

let test_ycsb_zipfian_skew () =
  (* Chi-squared-style pin: empirical file shares must track the zipf
     weights (theta 1.2 over 4 files) within a few points. *)
  let trace = ycsb ~horizon:8000 () in
  let counts = file_counts trace in
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  let expected = Pindisk_sim.Cache.zipf_weights ~n:4 ~theta:1.2 in
  let chi2 = ref 0.0 in
  Array.iteri
    (fun i c ->
      let e = expected.(i) *. total in
      let d = float_of_int c -. e in
      chi2 := !chi2 +. (d *. d /. e))
    counts;
  (* 3 degrees of freedom: chi2 < 16.27 is the 99.9th percentile. *)
  check_bool
    (Printf.sprintf "chi2 %.2f within 99.9%% band" !chi2)
    true (!chi2 < 16.27);
  check_bool "skew is visible" true (counts.(0) > 2 * counts.(3))

let test_ycsb_hotspot () =
  let trace =
    ycsb ~popularity:(Workload.Hotspot { hot_fraction = 0.25; hot_weight = 0.8 })
      ~horizon:8000 ()
  in
  let counts = file_counts trace in
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  let hot_share = float_of_int counts.(0) /. total in
  check_bool
    (Printf.sprintf "hot file holds ~80%% (got %.3f)" hot_share)
    true
    (abs_float (hot_share -. 0.8) < 0.04);
  (* The three cold files split the rest roughly evenly. *)
  List.iter
    (fun i ->
      let share = float_of_int counts.(i) /. total in
      check_bool
        (Printf.sprintf "cold file %d near 1/15 (got %.3f)" i share)
        true
        (abs_float (share -. (0.2 /. 3.0)) < 0.03))
    [ 1; 2; 3 ]

let test_ycsb_shifting_rotates () =
  let trace =
    ycsb ~popularity:(Workload.Shifting { theta = 1.5; every = 1000 })
      ~horizon:2000 ()
  in
  let window lo hi =
    let counts = Array.make 4 0 in
    List.iter
      (fun (r : Workload.request) ->
        if r.Workload.issued >= lo && r.Workload.issued < hi then
          counts.(r.Workload.file) <- counts.(r.Workload.file) + 1)
      trace;
    counts
  in
  let argmax a =
    let best = ref 0 in
    Array.iteri (fun i v -> if v > a.(!best) then best := i) a;
    !best
  in
  check_int "first window favors file 0" 0 (argmax (window 0 1000));
  check_int "second window favors file 1" 1 (argmax (window 1000 2000))

let test_ycsb_diurnal_wave () =
  let trace =
    ycsb ~arrivals:(Workload.Diurnal { period = 400; trough = 0.05 })
      ~horizon:8000 ()
  in
  (* sin peaks at phase 100, bottoms at phase 300 (period 400). *)
  let in_band center r =
    let phase = r.Workload.issued mod 400 in
    abs (phase - center) <= 50
  in
  let peak = List.length (List.filter (in_band 100) trace) in
  let trough = List.length (List.filter (in_band 300) trace) in
  check_bool
    (Printf.sprintf "peak band %d >> trough band %d" peak trough)
    true
    (peak > 4 * trough)

let test_ycsb_flash_crowd () =
  let trace =
    ycsb ~arrivals:(Workload.Flash { at = 2000; magnitude = 6.0; width = 200 })
      ~horizon:4000 ()
  in
  let count lo hi =
    List.length
      (List.filter
         (fun (r : Workload.request) ->
           r.Workload.issued >= lo && r.Workload.issued < hi)
         trace)
  in
  let spike = count 1900 2100 and baseline = count 900 1100 in
  check_bool
    (Printf.sprintf "flash window %d >> baseline %d" spike baseline)
    true
    (spike > 2 * baseline)

let test_ycsb_validation () =
  let run ?(rate = 1.0) ?(popularity = Workload.Zipfian { theta = 0.5 })
      ?(arrivals = Workload.Steady) ?(horizon = 10) () =
    ignore (ycsb ~rate ~popularity ~arrivals ~horizon ())
  in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Workload.ycsb: rate must be positive" (fun () -> run ~rate:0.0 ());
  raises "Workload.ycsb: horizon must be >= 1" (fun () -> run ~horizon:0 ());
  raises "Workload.ycsb: negative theta" (fun () ->
      run ~popularity:(Workload.Zipfian { theta = -1.0 }) ());
  raises "Workload.ycsb: hot_fraction must be in (0, 1]" (fun () ->
      run ~popularity:(Workload.Hotspot { hot_fraction = 0.0; hot_weight = 0.5 }) ());
  raises "Workload.ycsb: hot_weight must be in [0, 1]" (fun () ->
      run ~popularity:(Workload.Hotspot { hot_fraction = 0.5; hot_weight = 1.5 }) ());
  raises "Workload.ycsb: every must be >= 1" (fun () ->
      run ~popularity:(Workload.Shifting { theta = 0.5; every = 0 }) ());
  raises "Workload.ycsb: period must be >= 1" (fun () ->
      run ~arrivals:(Workload.Diurnal { period = 0; trough = 0.5 }) ());
  raises "Workload.ycsb: trough must be in [0, 1]" (fun () ->
      run ~arrivals:(Workload.Diurnal { period = 10; trough = 1.5 }) ());
  raises "Workload.ycsb: magnitude must be >= 1" (fun () ->
      run ~arrivals:(Workload.Flash { at = 5; magnitude = 0.5; width = 2 }) ());
  raises "Workload.ycsb: width must be >= 1" (fun () ->
      run ~arrivals:(Workload.Flash { at = 5; magnitude = 2.0; width = 0 }) ());
  raises "Workload.ycsb: flash slot must be >= 0" (fun () ->
      run ~arrivals:(Workload.Flash { at = -1; magnitude = 2.0; width = 2 }) ())

(* ------------------------------------------------------------------ *)
(* Typed errors and the resilient retrieve path                        *)
(* ------------------------------------------------------------------ *)

(* The Gilbert–Elliott stationary distribution in closed form:
   pi_bad = p_gb / (p_gb + p_bg), rate = (1 - pi_bad)·loss_good +
   pi_bad·loss_bad. [Fault.loss_rate] must implement exactly this, and
   the empirical loss over 10^5 slots must converge to it for any
   parameterization. *)
let prop_burst_loss_rate_converges =
  QCheck2.Test.make
    ~name:"burst loss_rate matches the stationary closed form empirically"
    ~count:25
    QCheck2.Gen.(
      quad (int_range 5 50) (int_range 5 50) (int_range 20 100)
        (int_bound 1_000_000))
    (fun (gb, bg, lb, seed) ->
      let p_good_to_bad = float_of_int gb /. 100.0 in
      let p_bad_to_good = float_of_int bg /. 100.0 in
      let loss_bad = float_of_int lb /. 100.0 in
      let f =
        Fault.burst ~p_good_to_bad ~p_bad_to_good ~loss_good:0.0 ~loss_bad
          ~seed
      in
      let pi_bad = p_good_to_bad /. (p_good_to_bad +. p_bad_to_good) in
      let expected = pi_bad *. loss_bad in
      if abs_float (Fault.loss_rate f -. expected) > 1e-9 then false
      else begin
        let n = 100_000 in
        let losses = ref 0 in
        for _ = 1 to n do
          if Fault.advance f then incr losses
        done;
        let empirical = float_of_int !losses /. float_of_int n in
        abs_float (empirical -. expected) < 0.03
      end)

let test_transport_unknown_file_typed () =
  let t = toy_transport () in
  check_bool "find_source_blocks known" true
    (Transport.find_source_blocks t 0 = Some 5);
  check_bool "find_source_blocks unknown" true
    (Transport.find_source_blocks t 9 = None);
  match Transport.retrieve t ~file:9 ~start:0 ~fault:(Fault.none ()) () with
  | Error (Transport.Unknown_file 9) -> ()
  | _ -> Alcotest.fail "expected Unknown_file 9"

let test_retrieve_typed () =
  let t = toy_transport () in
  (match Transport.retrieve t ~file:0 ~start:3 ~fault:(Fault.none ()) () with
  | Ok bytes ->
      Alcotest.(check string) "bit-exact"
        "intelligent vehicle highway system db" (Bytes.to_string bytes)
  | Error e -> Alcotest.failf "unexpected error: %a" Transport.pp_error e);
  (* Lose every slot: a 10-slot budget times out with nothing collected,
     and the error carries the exact accounting. *)
  let lose_all = Fault.deterministic (fun _ -> true) in
  match
    Transport.retrieve ~max_slots:10 t ~file:0 ~start:0 ~fault:lose_all ()
  with
  | Error (Transport.Timeout { slots = 10; collected = 0; needed = 5 }) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Transport.pp_error e
  | Ok _ -> Alcotest.fail "cannot succeed under total loss"

let test_retrieve_retries_across_cycles () =
  let t = toy_transport () in
  let dc = Program.data_cycle (Transport.program t) in
  (* Blackout for the whole first attempt's one-data-cycle budget:
     attempt 1 times out, the client backs off one period and re-tunes in
     error-free. *)
  let blackout = Fault.deterministic (fun slot -> slot < dc) in
  (match
     Transport.retrieve ~attempts:4 ~max_slots:dc t ~file:0 ~start:0
       ~fault:blackout ()
   with
  | Ok bytes ->
      Alcotest.(check string) "bit-exact after retry"
        "intelligent vehicle highway system db" (Bytes.to_string bytes)
  | Error e ->
      Alcotest.failf "resilient retrieval failed: %a" Transport.pp_error e);
  (* Pieces collected before a timeout survive the re-tune-in: a budget
     too small for any single attempt still completes across attempts. *)
  (match
     Transport.retrieve ~attempts:4 ~max_slots:5 t ~file:0 ~start:0
       ~fault:(Fault.none ()) ()
   with
  | Ok bytes ->
      Alcotest.(check string) "monotone progress across attempts"
        "intelligent vehicle highway system db" (Bytes.to_string bytes)
  | Error e ->
      Alcotest.failf "cross-attempt accumulation failed: %a" Transport.pp_error
        e);
  (* Total loss exhausts every attempt and reports the final timeout. *)
  match
    Transport.retrieve ~attempts:3 ~max_slots:dc t ~file:0 ~start:0
      ~fault:(Fault.deterministic (fun _ -> true)) ()
  with
  | Error (Transport.Timeout _) -> ()
  | _ -> Alcotest.fail "total loss must exhaust attempts"

let test_retrieve_records_retries () =
  let module Obs = Pindisk_obs in
  Obs.Control.with_enabled true (fun () ->
      Obs.Registry.reset ();
      Obs.Trace.reset ();
      let t = toy_transport () in
      let dc = Program.data_cycle (Transport.program t) in
      let blackout = Fault.deterministic (fun slot -> slot < dc) in
      (match
         Transport.retrieve ~attempts:4 ~max_slots:dc t ~file:0 ~start:0
           ~fault:blackout ()
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "failed: %a" Transport.pp_error e);
      check_int "one retry counted" 1
        (List.assoc "sim.transport.retries" (Obs.Registry.counters ()));
      check_bool "retry span traced" true
        (List.exists
           (fun e ->
             match e.Obs.Trace.span with
             | Obs.Trace.Retry { file = 0; attempt = 1; _ } -> true
             | _ -> false)
           (Obs.Trace.events ())))

let () =
  Alcotest.run "sim"
    [
      ( "fault",
        [
          Alcotest.test_case "none" `Quick test_fault_none;
          Alcotest.test_case "deterministic" `Quick test_fault_deterministic;
          Alcotest.test_case "bernoulli reproducible" `Quick test_fault_bernoulli_reproducible;
          Alcotest.test_case "bernoulli rate" `Quick test_fault_bernoulli_rate;
          Alcotest.test_case "burst stationary rate" `Quick test_fault_burst_stationary_rate;
          Alcotest.test_case "validation" `Quick test_fault_validation;
          Alcotest.test_case "reset_to determinism" `Quick
            test_fault_reset_to_determinism;
          QCheck_alcotest.to_alcotest prop_burst_loss_rate_converges;
        ] );
      ( "client",
        [
          Alcotest.test_case "error-free retrieval" `Quick test_client_error_free;
          Alcotest.test_case "B from slot 2" `Quick test_client_b_from_slot_2;
          Alcotest.test_case "single loss: ida vs flat" `Quick test_client_single_loss_ida_vs_flat;
          Alcotest.test_case "flat worst single loss" `Quick test_client_flat_worst_loss;
          Alcotest.test_case "max_slots cap" `Quick test_client_max_slots;
          Alcotest.test_case "validation" `Quick test_client_validation;
          Alcotest.test_case "typed retrieve_checked" `Quick
            test_client_retrieve_checked;
          Alcotest.test_case "report hook" `Quick test_client_report_hook;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "error-free worst case" `Quick test_adversary_error_free_matches_lemma;
          Alcotest.test_case "flat = lemma-1 tight (Fig 7)" `Quick test_adversary_flat_is_lemma1_tight;
          Alcotest.test_case "ida beats flat" `Quick test_adversary_ida_beats_flat;
          Alcotest.test_case "lemma-2 bound within redundancy" `Quick
            test_adversary_lemma2_bound_within_redundancy;
          Alcotest.test_case "dominates random clients" `Quick
            test_adversary_dominates_random_clients;
          Alcotest.test_case "validation" `Quick test_adversary_validation;
        ] );
      ( "transport",
        [
          Alcotest.test_case "on air" `Quick test_transport_on_air;
          Alcotest.test_case "roundtrip error-free" `Quick test_transport_roundtrip_error_free;
          Alcotest.test_case "roundtrip under loss" `Quick test_transport_roundtrip_under_loss;
          Alcotest.test_case "validation" `Quick test_transport_validation;
          Alcotest.test_case "report hook" `Quick test_transport_report_hook;
        ] );
      ( "transaction",
        [
          Alcotest.test_case "concurrent harvest" `Quick test_transaction_concurrent_harvest;
          Alcotest.test_case "worst case is max not sum" `Quick
            test_transaction_worst_case_is_max_not_sum;
          Alcotest.test_case "dominates simulation" `Quick
            test_transaction_worst_case_dominates_simulation;
          Alcotest.test_case "shared budget" `Quick test_transaction_shared_budget;
          Alcotest.test_case "validation" `Quick test_transaction_validation;
          Alcotest.test_case "starved" `Quick test_transaction_starved;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic and sorted" `Quick
            test_workload_deterministic_and_sorted;
          Alcotest.test_case "rate scales volume" `Quick test_workload_rate_scales;
          Alcotest.test_case "zipf skew" `Quick test_workload_zipf_skew;
        ] );
      ( "engine",
        [
          Alcotest.test_case "error-free meets all" `Quick test_engine_error_free_all_meet;
          Alcotest.test_case "per-file consistency" `Quick test_engine_per_file_consistency;
          Alcotest.test_case "loss monotone" `Quick test_engine_loss_monotone;
          Alcotest.test_case "per-file miss ratio" `Quick
            test_engine_file_miss_ratio;
          Alcotest.test_case "pp_result lists per-file ratios" `Quick
            test_engine_pp_result_lists_per_file_ratios;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "error-free" `Quick test_experiment_error_free;
          Alcotest.test_case "lossy monotone" `Quick test_experiment_lossy_monotone;
          Alcotest.test_case "ida beats flat" `Quick test_experiment_ida_beats_flat_under_loss;
        ] );
      ( "cohort",
        [
          Alcotest.test_case "run equals engine (programs x faults x seeds)"
            `Quick test_cohort_run_equals_engine;
          Alcotest.test_case "run equals engine under max_slots" `Quick
            test_cohort_run_equals_engine_max_slots;
          Alcotest.test_case "run validation" `Quick test_cohort_run_validation;
          Alcotest.test_case "prep reuse" `Quick test_cohort_prep_reuse;
          Alcotest.test_case "prep from another plan" `Quick
            test_cohort_prep_from_other_plan;
          Alcotest.test_case "classes of trace" `Quick
            test_cohort_classes_of_trace;
          Alcotest.test_case "population no-loss equals engine" `Quick
            test_cohort_population_no_loss_equals_engine;
          Alcotest.test_case "population mass conservation" `Quick
            test_cohort_population_mass_conservation;
          Alcotest.test_case "analytic close to sampled" `Quick
            test_cohort_population_analytic_close_to_sampled;
          Alcotest.test_case "population validation" `Quick
            test_cohort_population_validation;
          QCheck_alcotest.to_alcotest prop_cohort_permutation_invariant;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "deterministic and sorted" `Quick
            test_ycsb_deterministic;
          Alcotest.test_case "zipfian skew (chi-squared)" `Quick
            test_ycsb_zipfian_skew;
          Alcotest.test_case "hotspot shares" `Quick test_ycsb_hotspot;
          Alcotest.test_case "shifting rotates" `Quick
            test_ycsb_shifting_rotates;
          Alcotest.test_case "diurnal wave" `Quick test_ycsb_diurnal_wave;
          Alcotest.test_case "flash crowd" `Quick test_ycsb_flash_crowd;
          Alcotest.test_case "validation" `Quick test_ycsb_validation;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "typed unknown-file errors" `Quick
            test_transport_unknown_file_typed;
          Alcotest.test_case "retrieve verdicts" `Quick test_retrieve_typed;
          Alcotest.test_case "resilient retry across cycles" `Quick
            test_retrieve_retries_across_cycles;
          Alcotest.test_case "resilient retries observable" `Quick
            test_retrieve_records_retries;
        ] );
    ]
