module File_spec = Pindisk.File_spec
module Bandwidth = Pindisk.Bandwidth
module Program = Pindisk.Program
module Generalized = Pindisk.Generalized
module Bounds = Pindisk.Bounds
module Bc = Pindisk_algebra.Bc
module Task = Pindisk_pinwheel.Task
module Schedule = Pindisk_pinwheel.Schedule
module Verify = Pindisk_pinwheel.Verify
module Q = Pindisk_util.Q

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The paper's Figure 5/6 toy: files A (5 blocks) and B (3 blocks) in an
   8-slot period laid out A1 B1 A2 A3 B2 A4 B3 A5. *)
let toy_layout =
  [ (0, 0); (1, 0); (0, 1); (0, 2); (1, 1); (0, 3); (1, 2); (0, 4) ]

let toy_flat () = Program.of_layout toy_layout ~capacities:[ (0, 5); (1, 3) ]
let toy_ida () = Program.of_layout toy_layout ~capacities:[ (0, 10); (1, 6) ]

(* ------------------------------------------------------------------ *)
(* File_spec                                                           *)
(* ------------------------------------------------------------------ *)

let test_file_make () =
  let f = File_spec.make ~id:1 ~blocks:5 ~latency:10 ~tolerance:2 () in
  Alcotest.(check string) "default name" "F1" f.File_spec.name;
  check_int "default capacity m+r" 7 f.File_spec.capacity;
  Alcotest.check_raises "capacity too small"
    (Invalid_argument "File_spec.make: capacity below blocks + tolerance")
    (fun () ->
      ignore (File_spec.make ~id:0 ~blocks:5 ~latency:1 ~tolerance:2 ~capacity:6 ()));
  Alcotest.check_raises "capacity above IDA limit"
    (Invalid_argument "File_spec.make: capacity exceeds the 255-block IDA limit")
    (fun () ->
      ignore (File_spec.make ~id:0 ~blocks:200 ~latency:1 ~capacity:256 ()))

let test_file_to_task () =
  let f = File_spec.make ~id:3 ~blocks:4 ~latency:5 ~tolerance:1 () in
  let t = File_spec.to_task f ~bandwidth:2 in
  check_int "a = m + r" 5 t.Task.a;
  check_int "b = B*T" 10 t.Task.b;
  check_int "id" 3 t.Task.id;
  check_int "window" 10 (File_spec.window f ~bandwidth:2);
  let tight = File_spec.make ~id:3 ~blocks:4 ~latency:3 ~tolerance:1 () in
  Alcotest.check_raises "bandwidth too low"
    (Invalid_argument
       "File_spec.to_task: F3 needs 5 blocks in a 3-slot window; raise the bandwidth")
    (fun () -> ignore (File_spec.to_task tight ~bandwidth:1 |> ignore))

(* ------------------------------------------------------------------ *)
(* Bandwidth                                                           *)
(* ------------------------------------------------------------------ *)

let awacs_files =
  (* AWACS-flavoured: aircraft positions every 0.4s is awkward in integer
     seconds; scale to slots-as-deciseconds elsewhere. Here: sizes/latencies
     chosen to exercise the equations. *)
  [
    File_spec.make ~id:0 ~blocks:4 ~latency:4 ~tolerance:1 ();
    File_spec.make ~id:1 ~blocks:2 ~latency:6 ();
    File_spec.make ~id:2 ~blocks:6 ~latency:12 ~tolerance:2 ();
  ]

let test_demand_and_required () =
  (* demand = 5/4 + 2/6 + 8/12 = 1.25 + 0.333 + 0.667 = 2.25 = 9/4. *)
  Alcotest.(check string) "demand" "9/4" (Q.to_string (Bandwidth.demand awacs_files));
  (* required = ceil(10/7 * 9/4) = ceil(90/28) = ceil(3.214) = 4. *)
  check_int "equation 2" 4 (Bandwidth.required awacs_files)

let test_required_equation1_no_faults () =
  (* All tolerances zero: Equation 1. demand = 4/4 + 2/6 + 6/12 = 11/6;
     required = ceil(110/42) = 3. *)
  let files =
    [
      File_spec.make ~id:0 ~blocks:4 ~latency:4 ();
      File_spec.make ~id:1 ~blocks:2 ~latency:6 ();
      File_spec.make ~id:2 ~blocks:6 ~latency:12 ();
    ]
  in
  check_int "equation 1" 3 (Bandwidth.required files)

let test_required_bandwidth_schedulable () =
  check_bool "eq-2 bandwidth schedulable" true
    (Bandwidth.schedulable ~bandwidth:(Bandwidth.required awacs_files) awacs_files)

let test_minimum () =
  match Bandwidth.minimum awacs_files with
  | None -> Alcotest.fail "minimum bandwidth must exist"
  | Some (b, sched) ->
      check_bool "at most eq-2 bound" true (b <= Bandwidth.required awacs_files);
      check_bool "at least the demand" true
        Q.(Q.of_int b >= Bandwidth.demand awacs_files);
      check_bool "schedule verifies" true
        (Verify.satisfies sched (Bandwidth.tasks ~bandwidth:b awacs_files));
      check_bool "overhead within 43%%" true
        (Bandwidth.overhead ~achieved:(Bandwidth.required awacs_files) awacs_files
         <= 10.0 /. 7.0 +. 1.0 /. Q.to_float (Bandwidth.demand awacs_files) +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Program                                                             *)
(* ------------------------------------------------------------------ *)

let test_of_layout_toy () =
  let p = toy_ida () in
  check_int "period 8" 8 (Program.period p);
  check_int "data cycle 16 (Figure 6)" 16 (Program.data_cycle p);
  Alcotest.(check (list int)) "files" [ 0; 1 ] (Program.files p);
  check_int "A occurrences" 5 (Program.occurrences_per_period p 0);
  (* Second period carries the next dispersed blocks: slot 8 is A6. *)
  Alcotest.(check (option (pair int int))) "slot 0 = A1" (Some (0, 0)) (Program.block_at p 0);
  Alcotest.(check (option (pair int int))) "slot 8 = A6" (Some (0, 5)) (Program.block_at p 8);
  Alcotest.(check (option (pair int int))) "slot 9 = B4" (Some (1, 3)) (Program.block_at p 9);
  Alcotest.(check (option (pair int int))) "slot 16 = A1 again" (Some (0, 0)) (Program.block_at p 16)

let test_of_layout_flat_cycle () =
  let p = toy_flat () in
  check_int "flat data cycle = period" 8 (Program.data_cycle p);
  Alcotest.(check (option (pair int int))) "slot 8 repeats A1" (Some (0, 0)) (Program.block_at p 8)

let test_of_layout_rejects_bad_cycling () =
  Alcotest.check_raises "block indices must cycle"
    (Invalid_argument
       "Program.of_layout: file 0 occurrence 1 carries block 0, expected 1 \
        (capacity 5)") (fun () ->
      ignore (Program.of_layout [ (0, 0); (0, 0) ] ~capacities:[ (0, 5) ]));
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Program.of_layout: capacity must be >= 1") (fun () ->
      ignore (Program.of_layout [ (0, 0) ] ~capacities:[ (0, 0) ]))

let test_of_layout_idle () =
  let p = Program.of_layout [ (0, 0); (-1, 0); (0, 1) ] ~capacities:[ (0, 2) ] in
  Alcotest.(check (option (pair int int))) "idle slot" None (Program.block_at p 1);
  check_int "delta skips idle" 2
    (match Program.delta p 0 with Some d -> d | None -> -1)

let test_flat_builder () =
  let p = Program.flat [ (0, 5); (1, 3) ] in
  check_int "period 8" 8 (Program.period p);
  check_int "A slots" 5 (Program.occurrences_per_period p 0);
  check_int "B slots" 3 (Program.occurrences_per_period p 1);
  check_int "capacity A" 5 (Program.capacity p 0);
  (* Evenly spread: no file may have a gap above ceil(period / m) + 1. *)
  (match Program.delta p 0 with
  | Some d -> check_bool "A delta small" true (d <= 3)
  | None -> Alcotest.fail "A occurs");
  match Program.delta p 1 with
  | Some d -> check_bool "B delta small" true (d <= 4)
  | None -> Alcotest.fail "B occurs"

let test_aida_flat_builder () =
  let p = Program.aida_flat [ (0, 5, 10); (1, 3, 6) ] in
  check_int "period still 8" 8 (Program.period p);
  check_int "data cycle 16" 16 (Program.data_cycle p);
  check_int "capacity A" 10 (Program.capacity p 0);
  Alcotest.check_raises "capacity below size"
    (Invalid_argument "Program.aida_flat: capacity below size") (fun () ->
      ignore (Program.aida_flat [ (0, 5, 4) ]))

let test_pinwheel_builder () =
  match Program.pinwheel ~bandwidth:(Bandwidth.required awacs_files) awacs_files with
  | None -> Alcotest.fail "pinwheel program must exist at eq-2 bandwidth"
  | Some p ->
      (* Every file's pinwheel condition must hold on the program schedule. *)
      let sys =
        Bandwidth.tasks ~bandwidth:(Bandwidth.required awacs_files) awacs_files
      in
      check_bool "schedule satisfies tasks" true
        (Verify.satisfies (Program.schedule p) sys);
      (* Capacities come from the file specs. *)
      check_int "capacity of F0" 5 (Program.capacity p 0)

let test_auto_builder () =
  match Program.auto awacs_files with
  | None -> Alcotest.fail "auto program must exist"
  | Some (b, p) ->
      check_bool "bandwidth sane" true (b >= 1);
      check_bool "satisfies" true
        (Verify.satisfies (Program.schedule p) (Bandwidth.tasks ~bandwidth:b awacs_files))

let test_block_at_distinct_consecutive () =
  (* Consecutive transmissions of a file always carry distinct blocks when
     capacity > 1 (the heart of Lemma 2). *)
  let p = toy_ida () in
  let last = Hashtbl.create 4 in
  for t = 0 to (3 * Program.data_cycle p) - 1 do
    match Program.block_at p t with
    | Some (f, idx) ->
        (match Hashtbl.find_opt last f with
        | Some prev ->
            check_bool "consecutive blocks distinct" true (prev <> idx)
        | None -> ());
        Hashtbl.replace last f idx
    | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Generalized                                                         *)
(* ------------------------------------------------------------------ *)

let test_generalized_program () =
  let specs =
    [
      Generalized.spec (Bc.make ~file:0 ~m:2 ~d:[ 8; 10 ]);
      Generalized.spec ~capacity:6 (Bc.make ~file:1 ~m:1 ~d:[ 6; 9 ]);
    ]
  in
  match Generalized.program specs with
  | None -> Alcotest.fail "generalized program must exist"
  | Some p ->
      (* The projected schedule must satisfy the original bcs: re-verify
         from the outside too. *)
      List.iter
        (fun spec ->
          check_bool "bc satisfied" true
            (Bc.check (Program.schedule p) spec.Generalized.bc = None))
        specs;
      check_int "capacity default m+r" 3 (Program.capacity p 0);
      check_int "explicit capacity" 6 (Program.capacity p 1)

let test_generalized_densities () =
  let specs = [ Generalized.spec (Bc.make ~file:0 ~m:4 ~d:[ 8; 9 ]) ] in
  (* Example 4: the paper reaches 3/5; our single-condition search finds
     pc(5, 9) (which implies pc(4, 8) by R2), hitting the 5/9 lower bound
     exactly. *)
  Alcotest.(check string) "compiled" "5/9" (Q.to_string (Generalized.compiled_density specs));
  Alcotest.(check string) "lower bound" "5/9"
    (Q.to_string (Generalized.density_lower_bound specs))

let test_generalized_spec_validation () =
  Alcotest.check_raises "capacity below m+r"
    (Invalid_argument "Generalized.spec: capacity below m + r") (fun () ->
      ignore (Generalized.spec ~capacity:2 (Bc.make ~file:0 ~m:2 ~d:[ 8; 10 ])))

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

let test_bounds () =
  check_int "lemma 1" 24 (Bounds.lemma1 ~period:8 ~errors:3);
  check_int "lemma 2" 6 (Bounds.lemma2 ~delta:2 ~errors:3);
  Alcotest.(check string) "speedup 200/20-blocks example" "10"
    (Q.to_string (Bounds.speedup ~period:200 ~delta:20));
  let p = toy_ida () in
  (match Bounds.program_speedup p ~file:0 with
  | Some s -> Alcotest.(check string) "A speedup 8/2" "4" (Q.to_string s)
  | None -> Alcotest.fail "file 0 broadcast");
  check_bool "absent file" true (Bounds.program_speedup p ~file:9 = None)

(* The paper's 20-fold speedup example: 200 blocks, 10 files of 20 blocks
   each; uniform spreading gives delta = 10 and speedup 20. *)
let test_twenty_fold_speedup () =
  let files = List.init 10 (fun id -> (id, 20)) in
  let p = Program.flat files in
  check_int "period 200" 200 (Program.period p);
  List.iter
    (fun (id, _) ->
      match Bounds.program_speedup p ~file:id with
      | Some s -> check_bool "speedup = 20" true (Q.equal s (Q.of_int 20))
      | None -> Alcotest.fail "file broadcast")
    files

(* ------------------------------------------------------------------ *)
(* Block_size                                                          *)
(* ------------------------------------------------------------------ *)

module Block_size = Pindisk.Block_size

let bs_files =
  [
    Block_size.file ~id:0 ~bytes:4096 ~latency:4 ~tolerance:2 ();
    Block_size.file ~id:1 ~bytes:16384 ~latency:30 ~tolerance:1 ();
  ]

let test_block_size_tasks () =
  check_int "blocks at 1KiB" 4
    (Block_size.blocks_needed (List.hd bs_files) ~block:1024);
  (match Block_size.tasks ~byte_rate:4096 ~block:1024 bs_files with
  | Some [ t0; t1 ] ->
      check_int "F0: a = 4+2" 6 t0.Task.a;
      check_int "F0: window = 4 slots/s * 4 s" 16 t0.Task.b;
      check_int "F1: a = 16+1" 17 t1.Task.a;
      check_int "F1: window" 120 t1.Task.b
  | _ -> Alcotest.fail "two tasks expected");
  (* Block bigger than the byte rate: zero slots per second. *)
  check_bool "block > rate infeasible" true
    (Block_size.tasks ~byte_rate:512 ~block:1024 bs_files = None)

let test_block_size_largest_uniform () =
  match Block_size.largest_uniform ~byte_rate:4096 bs_files with
  | None -> Alcotest.fail "some block size must work"
  | Some (block, sched) ->
      check_bool "power of two candidate" true
        (Pindisk_util.Intmath.is_power_of_two block);
      (* The returned schedule satisfies the induced system. *)
      (match Block_size.tasks ~byte_rate:4096 ~block bs_files with
      | Some sys -> check_bool "verifies" true (Verify.satisfies sched sys)
      | None -> Alcotest.fail "winning block must induce a system");
      (* Maximality among the candidates: the next power of two fails. *)
      let bigger = 2 * block in
      check_bool "next candidate unschedulable" true
        (match Block_size.tasks ~byte_rate:4096 ~block:bigger bs_files with
        | None -> true
        | Some sys -> not (Pindisk_pinwheel.Scheduler.schedulable sys))

let test_block_size_smaller_is_more_efficient () =
  (* The paper's Section-5 observation: with tolerance > 0, halving the
     block size strictly reduces the induced density. *)
  let density block =
    match Block_size.tasks ~byte_rate:4096 ~block bs_files with
    | Some sys -> Pindisk_pinwheel.Task.system_density sys
    | None -> Q.of_int 2
  in
  check_bool "512B denser than 256B" true Q.(density 256 < density 512);
  check_bool "1KiB denser than 512B" true Q.(density 512 < density 1024)

let test_block_size_multipliers () =
  match Block_size.per_file_multipliers ~byte_rate:4096 ~base:256 bs_files with
  | None -> Alcotest.fail "base 256 must be schedulable"
  | Some (ks, sched) ->
      check_int "one multiplier per file" 2 (List.length ks);
      List.iter
        (fun (_, k) -> check_bool "k >= 1" true (k >= 1))
        ks;
      check_bool "schedule non-trivial" true (Schedule.period sched >= 1);
      (* The big relaxed file should have been granted a larger block
         multiple than floor (it has the most source blocks). *)
      check_bool "file 1 coarsened" true (List.assoc 1 ks > 1)

(* ------------------------------------------------------------------ *)
(* Designer                                                            *)
(* ------------------------------------------------------------------ *)

module Designer = Pindisk.Designer

let design_reqs =
  [
    Designer.requirement ~name:"alerts" ~id:0 ~bytes:3000 ~latency_s:4
      ~tolerance:2 ();
    Designer.requirement ~name:"bulk" ~id:1 ~bytes:60_000 ~latency_s:60 ();
  ]

let test_designer_plan () =
  match Designer.plan ~byte_rate:8192 design_reqs with
  | Error e -> Alcotest.failf "plan failed: %s" e
  | Ok plan ->
      check_bool "block size is a power of two" true
        (Pindisk_util.Intmath.is_power_of_two plan.Designer.block_size);
      check_int "slot rate consistent" plan.Designer.slot_rate
        (8192 / plan.Designer.block_size);
      (* Guarantees: every file's pinwheel condition holds on the
         program. *)
      let specs = List.map (fun fp -> fp.Designer.spec) plan.Designer.files in
      check_bool "program satisfies specs" true
        (Verify.satisfies
           (Program.schedule plan.Designer.program)
           (Bandwidth.tasks ~bandwidth:plan.Designer.bandwidth specs));
      (* Maximality among power-of-two candidates. *)
      let bigger = 2 * plan.Designer.block_size in
      if bigger <= 8192 then
        check_bool "next block size fails" true
          (match
             Designer.plan ~candidates:[ bigger ] ~byte_rate:8192 design_reqs
           with
          | Error _ -> true
          | Ok _ -> false)

let test_designer_reports_reason () =
  (* A channel too slow for the tight file: the error names a cause. *)
  match Designer.plan ~byte_rate:4 design_reqs with
  | Ok _ -> Alcotest.fail "4 B/s cannot carry 3000 B within 4 s"
  | Error reason -> check_bool "reason non-empty" true (String.length reason > 0)

let test_designer_validation () =
  Alcotest.check_raises "duplicate ids" (Invalid_argument "Designer.plan: duplicate ids")
    (fun () ->
      ignore
        (Designer.plan ~byte_rate:1024
           [
             Designer.requirement ~id:0 ~bytes:10 ~latency_s:1 ();
             Designer.requirement ~id:0 ~bytes:20 ~latency_s:2 ();
           ]))

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

module Codec = Pindisk.Codec

let test_codec_roundtrip () =
  let p = toy_ida () in
  match Codec.of_string (Codec.to_string p) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok p' ->
      check_int "period" (Program.period p) (Program.period p');
      check_int "data cycle" (Program.data_cycle p) (Program.data_cycle p');
      for t = 0 to Program.data_cycle p - 1 do
        check_bool "same slots" true (Program.block_at p t = Program.block_at p' t)
      done

let test_codec_idle_slots () =
  let p = Program.of_layout [ (0, 0); (-1, 0); (0, 1) ] ~capacities:[ (0, 2) ] in
  match Codec.of_string (Codec.to_string p) with
  | Ok p' -> check_bool "idle preserved" true (Program.block_at p' 1 = None)
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_codec_rejects_garbage () =
  check_bool "bad header" true (Result.is_error (Codec.of_string "nonsense v9\nlayout 0:0"));
  check_bool "empty" true (Result.is_error (Codec.of_string ""));
  check_bool "bad token" true
    (Result.is_error
       (Codec.of_string "pindisk-program v1\ncapacity 0 2\nlayout 0:x"));
  check_bool "missing capacity" true
    (Result.is_error (Codec.of_string "pindisk-program v1\nlayout 0:0"));
  check_bool "missing layout" true
    (Result.is_error (Codec.of_string "pindisk-program v1\ncapacity 0 2"));
  (* Inconsistent cycling is re-validated on parse. *)
  check_bool "broken cycling" true
    (Result.is_error
       (Codec.of_string "pindisk-program v1\ncapacity 0 5\nlayout 0:0 0:0"));
  (* A zero capacity is an Error, not a division by zero (a fuzz find). *)
  check_bool "zero capacity" true
    (Result.is_error
       (Codec.of_string "pindisk-program v1\ncapacity 0 0\nlayout 0:0"))

let test_codec_file_io () =
  let p = toy_flat () in
  let path = Filename.temp_file "pindisk" ".bdp" in
  Codec.write p path;
  (match Codec.read path with
  | Ok p' -> check_int "file roundtrip period" (Program.period p) (Program.period p')
  | Error e -> Alcotest.failf "read failed: %s" e);
  Sys.remove path;
  check_bool "missing file" true (Result.is_error (Codec.read path))

let prop_codec_roundtrip_random =
  QCheck2.Test.make ~name:"codec roundtrips random aida programs" ~count:80
    QCheck2.Gen.(pair (int_range 1 4) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let files =
        List.init n (fun id ->
            let m = 1 + Random.State.int rng 4 in
            (id, m, m + Random.State.int rng 4))
      in
      let p = Program.aida_flat files in
      match Codec.of_string (Codec.to_string p) with
      | Error _ -> false
      | Ok p' ->
          let cycle = Program.data_cycle p in
          Program.data_cycle p' = cycle
          && List.for_all
               (fun t -> Program.block_at p t = Program.block_at p' t)
               (List.init cycle (fun t -> t)))

let prop_codec_never_crashes_on_garbage =
  (* Fuzz: random mutations of a valid serialization either parse to a
     program or fail cleanly with Error -- never an exception. *)
  QCheck2.Test.make ~name:"codec survives mutated input" ~count:300
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 8))
    (fun (seed, flips) ->
      let rng = Random.State.make [| seed |] in
      let base = Codec.to_string (toy_ida ()) in
      let b = Bytes.of_string base in
      for _ = 1 to flips do
        let i = Random.State.int rng (Bytes.length b) in
        Bytes.set b i (Char.chr (32 + Random.State.int rng 95))
      done;
      match Codec.of_string (Bytes.to_string b) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* qcheck properties *)

let prop_bandwidth_bounds_ordered =
  QCheck2.Test.make ~name:"demand <= minimum <= required ordering" ~count:80
    QCheck2.Gen.(pair (int_range 1 5) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let files =
        List.init n (fun id ->
            File_spec.make ~id
              ~blocks:(1 + Random.State.int rng 5)
              ~latency:(2 + Random.State.int rng 12)
              ~tolerance:(Random.State.int rng 3)
              ())
      in
      let required = Bandwidth.required files in
      match Bandwidth.minimum files with
      | None -> false (* must always exist within the search bound *)
      | Some (b, _) ->
          (* demand <= b (b is a real bandwidth) and b within the search
             ceiling; required covers demand with the 10/7 factor. *)
          Q.( <= ) (Bandwidth.demand files) (Q.of_int b)
          && b <= 2 * required
          && Q.( <= ) (Bandwidth.demand files) (Q.of_int required))

let prop_pinwheel_programs_meet_conditions =
  QCheck2.Test.make ~name:"pinwheel programs satisfy every file's window" ~count:60
    QCheck2.Gen.(pair (int_range 1 5) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let files =
        List.init n (fun id ->
            File_spec.make ~id
              ~blocks:(1 + Random.State.int rng 5)
              ~latency:(2 + Random.State.int rng 10)
              ~tolerance:(Random.State.int rng 3)
              ())
      in
      match Program.auto files with
      | None -> false (* must always succeed within 2x the eq-2 bound *)
      | Some (b, p) ->
          Verify.satisfies (Program.schedule p) (Bandwidth.tasks ~bandwidth:b files))

let prop_data_cycle_periodicity =
  QCheck2.Test.make ~name:"block_at repeats exactly at the data cycle" ~count:60
    QCheck2.Gen.(pair (int_range 1 4) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let files =
        List.init n (fun id ->
            let m = 1 + Random.State.int rng 4 in
            (id, m, m + Random.State.int rng 4))
      in
      let p = Program.aida_flat files in
      let cycle = Program.data_cycle p in
      let ok = ref true in
      for t = 0 to cycle - 1 do
        if Program.block_at p t <> Program.block_at p (t + cycle) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "core"
    [
      ( "file-spec",
        [
          Alcotest.test_case "make" `Quick test_file_make;
          Alcotest.test_case "to_task" `Quick test_file_to_task;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "demand and equation 2" `Quick test_demand_and_required;
          Alcotest.test_case "equation 1 (r = 0)" `Quick test_required_equation1_no_faults;
          Alcotest.test_case "eq-2 bandwidth schedulable" `Quick
            test_required_bandwidth_schedulable;
          Alcotest.test_case "minimum search" `Quick test_minimum;
        ] );
      ( "program",
        [
          Alcotest.test_case "figure 6 layout" `Quick test_of_layout_toy;
          Alcotest.test_case "figure 5 data cycle" `Quick test_of_layout_flat_cycle;
          Alcotest.test_case "cycling discipline enforced" `Quick
            test_of_layout_rejects_bad_cycling;
          Alcotest.test_case "idle slots" `Quick test_of_layout_idle;
          Alcotest.test_case "flat builder" `Quick test_flat_builder;
          Alcotest.test_case "aida_flat builder" `Quick test_aida_flat_builder;
          Alcotest.test_case "pinwheel builder" `Quick test_pinwheel_builder;
          Alcotest.test_case "auto builder" `Quick test_auto_builder;
          Alcotest.test_case "consecutive blocks distinct" `Quick
            test_block_at_distinct_consecutive;
        ] );
      ( "generalized",
        [
          Alcotest.test_case "program pipeline" `Quick test_generalized_program;
          Alcotest.test_case "densities" `Quick test_generalized_densities;
          Alcotest.test_case "spec validation" `Quick test_generalized_spec_validation;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "closed forms" `Quick test_bounds;
          Alcotest.test_case "20-fold speedup example" `Quick test_twenty_fold_speedup;
        ] );
      ( "block-size",
        [
          Alcotest.test_case "induced tasks" `Quick test_block_size_tasks;
          Alcotest.test_case "largest uniform" `Quick test_block_size_largest_uniform;
          Alcotest.test_case "smaller is denser-efficient" `Quick
            test_block_size_smaller_is_more_efficient;
          Alcotest.test_case "per-file multipliers" `Quick test_block_size_multipliers;
        ] );
      ( "designer",
        [
          Alcotest.test_case "plan" `Quick test_designer_plan;
          Alcotest.test_case "reports reason" `Quick test_designer_reports_reason;
          Alcotest.test_case "validation" `Quick test_designer_validation;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "idle slots" `Quick test_codec_idle_slots;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "file io" `Quick test_codec_file_io;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bandwidth_bounds_ordered;
            prop_pinwheel_programs_meet_conditions;
            prop_data_cycle_periodicity;
            prop_codec_roundtrip_random;
            prop_codec_never_crashes_on_garbage;
          ] );
    ]
