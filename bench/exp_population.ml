(* E15 -- population-scale comparison: the same Poisson/Zipf request
   trace replayed against the pinwheel program, the flat program, and the
   classic multi-disk farm, across channel loss rates. *)

module File_spec = Pindisk.File_spec
module Program = Pindisk.Program
module Multidisk = Pindisk.Multidisk
module Fault = Pindisk_sim.Fault
module Workload = Pindisk_sim.Workload
module Engine = Pindisk_sim.Engine
module Stats = Pindisk_util.Stats

let files =
  [
    File_spec.make ~name:"hot" ~id:0 ~blocks:2 ~latency:4 ~tolerance:2 ();
    File_spec.make ~name:"warm" ~id:1 ~blocks:3 ~latency:10 ~tolerance:1 ();
    File_spec.make ~name:"cool" ~id:2 ~blocks:5 ~latency:25 ~tolerance:1 ();
    File_spec.make ~name:"cold" ~id:3 ~blocks:8 ~latency:60 ();
  ]

let run () =
  Format.printf
    "== E15 / population run: one trace, three programs (3000+ requests) ==@.";
  let bandwidth = Option.get (Pindisk.Bandwidth.minimum files) in
  let pinwheel =
    Option.get
      (Pindisk.Shard.program
         (Result.get_ok (Pindisk.Shard.design ~channels:1 ~bandwidth files)))
  in
  let flat =
    Program.flat (List.map (fun f -> (f.File_spec.id, f.File_spec.blocks)) files)
  in
  let classic =
    Multidisk.program
      [
        { Multidisk.frequency = 8; files = [ (0, 2) ] };
        { Multidisk.frequency = 4; files = [ (1, 3) ] };
        { Multidisk.frequency = 2; files = [ (2, 5) ] };
        { Multidisk.frequency = 1; files = [ (3, 8) ] };
      ]
  in
  let needed_of f = (List.nth files f).File_spec.blocks in
  let deadline_of f = File_spec.window (List.nth files f) ~bandwidth in
  let trace =
    Workload.generate ~program:pinwheel ~rate:0.35 ~theta:0.9 ~needed_of
      ~deadline_of ~horizon:10_000 ~seed:8
  in
  Format.printf "  (deadlines = B*T at B = %d; trace of %d requests)@."
    bandwidth (List.length trace);
  Format.printf "  %-6s | %-21s | %-21s | %-21s@." "loss" "pinwheel+AIDA"
    "flat" "classic multi-disk";
  Format.printf "  %-6s | %8s %12s | %8s %12s | %8s %12s@." "" "miss" "p99 lat"
    "miss" "p99 lat" "miss" "p99 lat";
  List.iter
    (fun p ->
      let cell program =
        let r =
          Engine.run ~program
            ~fault:(fun ~seed -> Fault.bernoulli ~p ~seed)
            ~seed:99 trace
        in
        ( 100.0 *. Engine.miss_ratio r,
          if Stats.count r.Engine.latency = 0 then 0.0
          else Stats.percentile r.Engine.latency 99.0 )
      in
      let pm, pp_ = cell pinwheel in
      let fm, fp = cell flat in
      let cm, cp = cell classic in
      Format.printf "  %5.0f%% | %7.1f%% %12.0f | %7.1f%% %12.0f | %7.1f%% %12.0f@."
        (100.0 *. p) pm pp_ fm fp cm cp)
    [ 0.0; 0.05; 0.15; 0.3 ];
  Format.printf
    "  (same request trace everywhere. The pinwheel/AIDA program holds \
     its miss@.   ratio as losses climb because redundancy was budgeted \
     per deadline; the@.   demand-blind baselines miss the tight \
     deadlines even on a clean channel.)@.@."
