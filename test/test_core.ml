module File_spec = Pindisk.File_spec
module Bandwidth = Pindisk.Bandwidth
module Program = Pindisk.Program
module Shard = Pindisk.Shard
module Generalized = Pindisk.Generalized
module Bounds = Pindisk.Bounds
module Bc = Pindisk_algebra.Bc
module Task = Pindisk_pinwheel.Task
module Schedule = Pindisk_pinwheel.Schedule
module Verify = Pindisk_pinwheel.Verify
module Plan = Pindisk_pinwheel.Plan
module Scheduler = Pindisk_pinwheel.Scheduler
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
  | Some b ->
      check_bool "at most eq-2 bound" true (b <= Bandwidth.required awacs_files);
      check_bool "at least the demand" true
        Q.(Q.of_int b >= Bandwidth.demand awacs_files);
      check_bool "schedulable there" true
        (Bandwidth.schedulable ~bandwidth:b awacs_files);
      check_bool "not one below" false
        (Bandwidth.schedulable ~bandwidth:(b - 1) awacs_files);
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

(* The single-channel design's one program, when it sheds nothing. *)
let single ~bandwidth files =
  Result.to_option (Shard.design ~channels:1 ~bandwidth files)
  |> Fun.flip Option.bind Shard.program

let test_pinwheel_builder () =
  match single ~bandwidth:(Bandwidth.required awacs_files) awacs_files with
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
  let b = Option.get (Bandwidth.minimum awacs_files) in
  match single ~bandwidth:b awacs_files with
  | None -> Alcotest.fail "a program must exist at the minimum bandwidth"
  | Some p ->
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

module Designer = Pindisk.Designer

let bs_files =
  [
    Block_size.file ~id:0 ~bytes:4096 ~latency:4 ~tolerance:2 ();
    Block_size.file ~id:1 ~bytes:16384 ~latency:30 ~tolerance:1 ();
  ]

let bs_reqs =
  List.map
    (fun (f : Block_size.file) ->
      Designer.requirement ~id:f.Block_size.id ~bytes:f.Block_size.bytes
        ~latency_s:f.Block_size.latency ~tolerance:f.Block_size.tolerance ())
    bs_files

(* The pinwheel system a system-wide block size induces: file i becomes
   (i, ⌈bytes_i/b⌉ + r_i, ⌊byte_rate/b⌋ · T_i). *)
let induced ~byte_rate ~block =
  Bandwidth.tasks ~bandwidth:(byte_rate / block)
    (List.map
       (fun (f : Block_size.file) ->
         File_spec.make ~id:f.Block_size.id
           ~blocks:(Pindisk_util.Intmath.ceil_div f.Block_size.bytes block)
           ~latency:f.Block_size.latency ~tolerance:f.Block_size.tolerance ())
       bs_files)

(* The designer's per-candidate step, as an oracle: [reqs] at [block]
   bytes per block leave no schedule on a [byte_rate] channel. *)
let unschedulable_at ~byte_rate ~block reqs =
  not
    (Bandwidth.schedulable ~bandwidth:(byte_rate / block)
       (List.map
          (fun (r : Designer.requirement) ->
            File_spec.make ~id:r.Designer.id ~tolerance:r.Designer.tolerance
              ~blocks:(Pindisk_util.Intmath.ceil_div r.Designer.bytes block)
              ~latency:r.Designer.latency_s ())
          reqs))

let test_block_size_tasks () =
  (match Designer.plan ~byte_rate:4096 bs_reqs with
  | Ok { Designer.files = [ f0; f1 ]; block_size = 4096; _ } ->
      let a f = f.Designer.spec.File_spec.blocks + f.Designer.spec.File_spec.tolerance in
      check_int "F0: a = 1+2" 3 (a f0);
      check_int "F0: window = 1 slot/s * 4 s" 4 f0.Designer.window;
      check_int "F1: a = 4+1" 5 (a f1);
      check_int "F1: window" 30 f1.Designer.window
  | _ -> Alcotest.fail "two files at 4096-byte blocks expected");
  (* A 512 B/s channel: from 128-byte blocks up every file fits IDA's
     255 pieces, but the demand exceeds the slots. *)
  check_bool "512 B/s infeasible" true
    (Result.is_error (Designer.plan ~byte_rate:512 bs_reqs))

let test_block_size_largest_uniform () =
  match Designer.plan ~byte_rate:4096 bs_reqs with
  | Error e -> Alcotest.failf "some block size must work: %s" e
  | Ok d ->
      let block = d.Designer.block_size in
      check_bool "power of two candidate" true
        (Pindisk_util.Intmath.is_power_of_two block);
      (* The program's schedule satisfies the induced system. *)
      check_bool "verifies" true
        (Verify.satisfies (Program.schedule d.Designer.program)
           (induced ~byte_rate:4096 ~block));
      (* Maximality among the candidates: the next power of two fails. *)
      check_bool "next candidate unschedulable" true
        (unschedulable_at ~byte_rate:4096 ~block:(2 * block) bs_reqs)

let test_block_size_smaller_is_more_efficient () =
  (* The paper's Section-5 observation: with tolerance > 0, halving the
     block size strictly reduces the induced density. *)
  let density block = Task.system_density (induced ~byte_rate:4096 ~block) in
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

let test_block_size_ida_limit () =
  (* 255 source blocks of 256 bytes plus r = 2 is 257 dispersed pieces,
     past IDA's 255, although the 258 slots per second would hold them;
     doubling the block (130 blocks of 2 slots) overflows the window. *)
  let files = [ Block_size.file ~id:0 ~bytes:65_280 ~latency:1 ~tolerance:2 () ] in
  check_bool "257 pieces rejected" true
    (Block_size.per_file_multipliers ~byte_rate:66_048 ~base:256 files = None);
  check_bool "designer rejects it too" true
    (Result.is_error
       (Designer.plan ~byte_rate:66_048
          [ Designer.requirement ~id:0 ~bytes:65_280 ~latency_s:1 ~tolerance:2 () ]))

(* ------------------------------------------------------------------ *)
(* Designer                                                            *)
(* ------------------------------------------------------------------ *)

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
      check_int "bandwidth is the slot rate" (8192 / plan.Designer.block_size)
        plan.Designer.bandwidth;
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
          (unschedulable_at ~byte_rate:8192 ~block:bigger design_reqs)

let test_designer_reports_reason () =
  (* A channel too slow for the tight file: the error names a cause. *)
  (match Designer.plan ~byte_rate:4 design_reqs with
  | Ok _ -> Alcotest.fail "4 B/s cannot carry 3000 B within 4 s"
  | Error reason -> check_bool "reason non-empty" true (String.length reason > 0));
  (* The channel binds, not IDA: the smallest block size that fits 255
     pieces is named, not the last (1-byte) candidate. *)
  match Designer.plan ~byte_rate:512 bs_reqs with
  | Ok _ -> Alcotest.fail "512 B/s cannot carry F0 within 4 s"
  | Error reason ->
      Alcotest.(check string)
        "binding reason" "unschedulable at 128-byte blocks (demand 64/5 of 4 slots/sec)"
        reason

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
      | Some b ->
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
      match Option.map (fun b -> (b, single ~bandwidth:b files)) (Bandwidth.minimum files) with
      | None | Some (_, None) -> false (* must always succeed within 2x the eq-2 bound *)
      | Some (b, Some p) ->
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

(* A random program over a random one-period schedule: each file gets a
   random capacity, and (through of_layout) a random phase — the block
   its first occurrence carries. Returns the program with the raw slot
   array, capacities and phases it was built from. *)
let gen_program =
  QCheck2.Gen.(
    let* period = int_range 1 10 in
    let* files = int_range 1 4 in
    let* slots = array_size (return period) (int_range (-1) (files - 1)) in
    let* caps = array_size (return files) (int_range 1 5) in
    let* phases = array_size (return files) (int_bound 4) in
    let* phased = bool in
    let capacities = List.init files (fun f -> (f, caps.(f))) in
    let phases =
      Array.mapi (fun f ph -> if phased then ph mod caps.(f) else 0) phases
    in
    let program =
      if phased then
        let k = Array.make files 0 in
        Program.of_layout
          (Array.to_list
             (Array.map
                (fun f ->
                  if f < 0 then (-1, 0)
                  else begin
                    let blk = (phases.(f) + k.(f)) mod caps.(f) in
                    k.(f) <- k.(f) + 1;
                    (f, blk)
                  end)
                slots))
          ~capacities
      else Program.make ~schedule:(Schedule.make slots) ~capacities
    in
    return (program, slots, caps, phases))

let prop_block_at_matches_recount =
  QCheck2.Test.make ~name:"block_at equals a naive recount" ~count:200
    gen_program (fun (p, slots, caps, phases) ->
      let period = Array.length slots in
      let naive t =
        let f = slots.(t mod period) in
        if f < 0 then None
        else begin
          let earlier = ref 0 in
          for u = 0 to t - 1 do
            if slots.(u mod period) = f then incr earlier
          done;
          Some (f, (phases.(f) + !earlier) mod caps.(f))
        end
      in
      List.for_all
        (fun t -> Program.block_at p t = naive t)
        (List.init (2 * Program.data_cycle p) Fun.id))

let prop_offsets_count_occurrences =
  QCheck2.Test.make ~name:"offsets are the occurrences per period" ~count:200
    gen_program (fun (p, slots, caps, _) ->
      List.for_all
        (fun f ->
          let offs = Program.offsets p f in
          Array.length offs = Program.occurrences_per_period p f
          && Array.to_list offs
             = List.filter (fun s -> slots.(s) = f)
                 (List.init (Array.length slots) Fun.id))
        (List.init (Array.length caps) Fun.id))

(* ------------------------------------------------------------------ *)
(* Programs indexed from their plans                                   *)
(* ------------------------------------------------------------------ *)

module Pgen = struct
  include Pindisk_pinwheel.Gen
  include Gen_systems
end

(* Whether both builders fail, and with the same message. *)
let same_outcome plan caps =
  let run f = match f () with _ -> Ok () | exception Invalid_argument e -> Error e in
  run (fun () -> Program.of_plan plan ~capacities:caps)
  = run (fun () -> Program.make ~schedule:(Plan.to_schedule plan) ~capacities:caps)

(* Everything a program answers, over two data cycles; [block_at] also
   against a recount of the materialised schedule. *)
let same_program ~slots ~caps p p' =
  let period = Array.length slots in
  let cycle = Program.data_cycle p in
  let seen = Hashtbl.create 8 in
  let recount t =
    let f = slots.(t mod period) in
    if f = Schedule.idle then None
    else begin
      let k = Option.value ~default:0 (Hashtbl.find_opt seen f) in
      Hashtbl.replace seen f (k + 1);
      Some (f, k mod List.assoc f caps)
    end
  in
  (Program.schedule p).Schedule.slots = slots
  && (Program.schedule p').Schedule.slots = slots
  && cycle = Program.data_cycle p'
  && List.for_all
       (fun (f, _) ->
         Program.offsets p f = Program.offsets p' f
         && Program.capacity p f = Program.capacity p' f
         && Program.delta p f = Program.delta p' f)
       caps
  && List.for_all
       (fun t ->
         let b = Program.block_at p t in
         b = Program.block_at p' t && b = recount t)
       (List.init (2 * cycle) Fun.id)

(* Plans of every constructor — progressions (Sa, Sx), merges (Sr, Sxy)
   and explicit schedules (the exact solver) — indexed straight from the
   plan and from its materialised schedule. Capacities of 1-4 keep two
   data cycles short. Both builders must fail alike on a colliding plan,
   on a file left without a capacity, and on no capacities at all (the
   lowest busy slot names the file). *)
let prop_plan_indexed_program =
  QCheck2.Test.make ~name:"plan-indexed program equals make of to_schedule"
    ~count:200
    QCheck2.Gen.(quad bool (int_range 1 6) (int_bound 1_000_000) (int_range 0 2))
    (fun (multi, n, seed, drop) ->
      let sys =
        if multi then Pgen.multi_unit_system ~seed ~n ~max_a:2 ~max_b:12 ~target:0.8
        else Pgen.unit_system_with_density ~seed ~n ~max_b:10 ~target:0.8
      in
      let caps =
        List.map (fun (t : Task.t) -> (t.Task.id, 1 + (t.Task.id * 7 mod 4))) sys
      in
      let plans =
        List.filter_map
          (fun algorithm ->
            try Scheduler.plan ~algorithm sys with Invalid_argument _ -> None)
          Scheduler.[ Sa; Sx; Sr; Sxy; Exact_small ]
      in
      (* Slot 0 or 1 of a 2-slot period claimed by both tasks. *)
      let clash =
        Plan.progressions
          [
            { Plan.key = 0; offset = 0; period = 2 };
            { Plan.key = 1; offset = seed mod 2; period = 2 };
          ]
      in
      let missing = List.filteri (fun i _ -> i <> drop) caps in
      same_outcome clash caps
      && List.for_all
           (fun plan ->
             same_program
               ~slots:(Plan.to_schedule plan).Schedule.slots
               ~caps
               (Program.of_plan plan ~capacities:caps)
               (Program.make ~schedule:(Plan.to_schedule plan) ~capacities:caps)
             && same_outcome plan missing
             && same_outcome plan [])
           plans)

let test_program_memory () =
  (* 256 files sharing a 4096-slot period: the index is O(period) words,
     not a table per file. *)
  let period = 4096 and files = 256 in
  let p =
    Program.make
      ~schedule:(Schedule.make (Array.init period (fun s -> s mod files)))
      ~capacities:(List.init files (fun f -> (f, 3)))
  in
  let words = Obj.reachable_words (Obj.repr p) in
  check_bool
    (Printf.sprintf "%d words under 16 x period" words)
    true
    (words < 16 * period)

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
          Alcotest.test_case "index is O(period) words" `Quick
            test_program_memory;
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
          Alcotest.test_case "per-file multipliers respect the IDA limit" `Quick
            test_block_size_ida_limit;
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
            prop_block_at_matches_recount;
            prop_offsets_count_occurrences;
            prop_plan_indexed_program;
          ] );
    ]
