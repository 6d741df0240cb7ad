(* E10 -- Bechamel micro-benchmarks: the computational kernels. One
   Test.make per kernel; results as ns/run via OLS against run count. *)

open Bechamel
module Ida = Pindisk_ida.Ida
module P = Pindisk_pinwheel
module Convert = Pindisk_algebra.Convert
module Bc = Pindisk_algebra.Bc

let ida_tests =
  let file = Bytes.init 8192 (fun i -> Char.chr (i land 0xff)) in
  let ida = Ida.create ~m:8 in
  let pieces = Array.to_list (Ida.disperse ida ~n:12 file) in
  let subset = List.filteri (fun i _ -> i >= 4) pieces in
  [
    Test.make ~name:"ida/disperse 8KiB m=8 n=12"
      (Staged.stage (fun () -> ignore (Ida.disperse ida ~n:12 file)));
    Test.make ~name:"ida/reconstruct 8KiB m=8"
      (Staged.stage (fun () -> ignore (Ida.reconstruct ida ~length:8192 subset)));
  ]

let scheduler_tests =
  let sys = P.Gen.unit_system_with_density ~seed:5 ~n:12 ~max_b:64 ~target:0.65 in
  let small = P.Gen.unit_system_with_density ~seed:9 ~n:4 ~max_b:10 ~target:0.85 in
  (* Density 349/420: past Sx, Sr and Sxy, planned by the search. *)
  let kawamura =
    List.mapi (fun id b -> P.Task.unit ~id ~b) [ 4; 6; 7; 10; 15; 21; 35; 35 ]
  in
  let sched =
    match P.Scheduler.plan sys with
    | Some p -> P.Plan.to_schedule p
    | None -> assert false
  in
  [
    Test.make ~name:"pinwheel/Sx 12 tasks"
      (Staged.stage (fun () ->
           ignore (Option.map P.Plan.to_schedule (P.Specialize.sx_plan sys))));
    Test.make ~name:"pinwheel/exact 4 tasks"
      (Staged.stage (fun () -> ignore (P.Exact.decide small)));
    Test.make ~name:"pinwheel/exact search 8 tasks"
      (Staged.stage (fun () -> ignore (P.Exact.decide kawamura)));
    Test.make ~name:"pinwheel/verify 12 tasks"
      (Staged.stage (fun () -> ignore (P.Verify.check_system sched sys)));
  ]

let algebra_tests =
  let bcs =
    [
      Bc.make ~file:0 ~m:5 ~d:[ 100; 105; 110; 115; 120 ];
      Bc.make ~file:1 ~m:4 ~d:[ 8; 9 ];
      Bc.make ~file:2 ~m:2 ~d:[ 5; 6; 6 ];
    ]
  in
  [
    Test.make ~name:"algebra/compile 3 bcs"
      (Staged.stage (fun () -> ignore (Convert.compile bcs)));
  ]

let program_tests =
  let files =
    [
      Pindisk.File_spec.make ~id:0 ~blocks:2 ~latency:4 ~tolerance:2 ();
      Pindisk.File_spec.make ~id:1 ~blocks:4 ~latency:12 ~tolerance:1 ();
      Pindisk.File_spec.make ~id:2 ~blocks:6 ~latency:30 () ;
    ]
  in
  [
    Test.make ~name:"program/design 3 files"
      (Staged.stage (fun () ->
           let bandwidth = Option.get (Pindisk.Bandwidth.minimum files) in
           ignore (Pindisk.Shard.design ~channels:1 ~bandwidth files)));
  ]

let all_tests =
  Test.make_grouped ~name:"pindisk"
    (ida_tests @ scheduler_tests @ algebra_tests @ program_tests)

let run () =
  Format.printf "== E10 / micro-benchmarks (Bechamel, ns per run) ==@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Format.printf "  %-36s %12.0f ns/run@." name est
      | _ -> Format.printf "  %-36s (no estimate)@." name)
    results;
  Format.printf
    "  (reference: the paper's SETH IDA chip ran at ~1 MB/s; see E8 for \
     our@.   software IDA throughput.)@.@."
