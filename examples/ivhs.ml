(* IVHS: the paper's Intelligent Vehicle Highway System scenario.

   An IVHS backbone broadcasts traffic data to vehicles over a satellite
   downlink; vehicles have tiny caches and a weak cellular uplink, so they
   fetch everything from the broadcast disk "as it goes by". Incident
   alerts must arrive fast even on a noisy channel; the static map tiles
   can wait.

   This example runs the full stack end to end: real bytes are IDA-
   dispersed, broadcast per a pinwheel program, damaged by a bursty
   channel, and reconstructed by vehicles; then a stochastic fleet
   measures deadline-miss ratios for the AIDA program against a naive
   flat program.

   Run with: dune exec examples/ivhs.exe *)

module File_spec = Pindisk.File_spec
module Program = Pindisk.Program
module Bandwidth = Pindisk.Bandwidth
module Fault = Pindisk_sim.Fault
module Transport = Pindisk_sim.Transport
module Experiment = Pindisk_sim.Experiment

let incident_report =
  "INCIDENT I-93N mile 42: lane 3 blocked, delay 25 min, reroute via exit 40"

let route_guidance =
  String.concat "; "
    (List.init 6 (fun i -> Printf.sprintf "segment %d: speed %d km/h" i (40 + (7 * i))))

let map_tile = String.init 512 (fun i -> Char.chr (32 + (i mod 95)))

let () =
  (* Incidents: 2 blocks, 3-second deadline, survive 2 losses.
     Guidance: 3 blocks, 10-second deadline, survive 1 loss.
     Map tiles: 8 blocks, relaxed deadline, no redundancy. *)
  let files =
    [
      File_spec.make ~name:"incidents" ~id:0 ~blocks:2 ~latency:3 ~tolerance:2 ();
      File_spec.make ~name:"guidance" ~id:1 ~blocks:3 ~latency:10 ~tolerance:1 ();
      (* Larger files are more exposed to block errors, so they get a
         larger r (the paper's Section 3.2 generalization). *)
      File_spec.make ~name:"maps" ~id:2 ~blocks:8 ~latency:40 ~tolerance:2 ();
    ]
  in
  let bandwidth, program =
    match Program.auto files with Some r -> r | None -> assert false
  in
  Format.printf "IVHS downlink: %d blocks/sec (Equation-2 bound: %d)@." bandwidth
    (Bandwidth.required files);
  Format.printf "Broadcast period %d slots, data cycle %d slots@.@."
    (Program.period program) (Program.data_cycle program);

  (* End-to-end: disperse actual content, broadcast, reconstruct in a
     vehicle behind a bursty (tunnel-prone) channel. *)
  let transport =
    Transport.create ~program
      [
        (0, 2, Bytes.of_string incident_report);
        (1, 3, Bytes.of_string route_guidance);
        (2, 8, Bytes.of_string map_tile);
      ]
  in
  let tunnel_channel ~seed =
    Fault.burst ~p_good_to_bad:0.05 ~p_bad_to_good:0.3 ~loss_good:0.01
      ~loss_bad:0.6 ~seed
  in
  (match Transport.retrieve transport ~file:0 ~start:11 ~fault:(tunnel_channel ~seed:3) () with
  | Ok bytes ->
      Format.printf "Vehicle reconstructed the incident report through the tunnel:@.  %S@.@."
        (Bytes.to_string bytes)
  | Error _ -> Format.printf "Vehicle failed to reconstruct the incident report!@.@.");

  (* Fleet measurement: deadline-miss ratio for the pinwheel/AIDA program
     versus a flat non-IDA program carrying the same files. *)
  let flat =
    Program.flat (List.map (fun f -> (f.File_spec.id, f.File_spec.blocks)) files)
  in
  Format.printf "Fleet of 2000 vehicles, bursty channel, per-file deadline B*T:@.";
  Format.printf "  %-10s %14s %14s@." "file" "AIDA miss-rate" "flat miss-rate";
  List.iter
    (fun f ->
      let deadline = File_spec.window f ~bandwidth in
      let run program =
        Experiment.run ~program ~file:f.File_spec.id ~needed:f.File_spec.blocks
          ~deadline ~fault:tunnel_channel ~trials:2000 ~seed:17 ()
      in
      let aida = run program and naive = run flat in
      Format.printf "  %-10s %13.1f%% %13.1f%%@." f.File_spec.name
        (100.0 *. Experiment.miss_ratio aida)
        (100.0 *. Experiment.miss_ratio naive))
    files;
  Format.printf
    "@.(The flat program is also slower error-free: its period is the sum of@.\
    \ all file sizes, while the pinwheel program spreads urgent files densely.)@."
