(* Quickstart: design a fault-tolerant real-time broadcast program.

   Three files with different sizes, latency constraints and fault-
   tolerance requirements; the library finds the bandwidth, builds the
   pinwheel-scheduled program, and a simulated client retrieves a file
   through block losses.

   Run with: dune exec examples/quickstart.exe *)

module File_spec = Pindisk.File_spec
module Bandwidth = Pindisk.Bandwidth
module Program = Pindisk.Program
module Shard = Pindisk.Shard
module Schedule = Pindisk_pinwheel.Schedule
module Fault = Pindisk_sim.Fault
module Client = Pindisk_sim.Client

let () =
  (* 1. Specify the files: size (blocks), latency (seconds), tolerance. *)
  let files =
    [
      File_spec.make ~name:"alerts" ~id:0 ~blocks:2 ~latency:4 ~tolerance:2 ();
      File_spec.make ~name:"positions" ~id:1 ~blocks:4 ~latency:8 ~tolerance:1 ();
      File_spec.make ~name:"maps" ~id:2 ~blocks:8 ~latency:30 ();
    ]
  in
  Format.printf "Files:@.";
  List.iter (fun f -> Format.printf "  %a@." File_spec.pp f) files;

  (* 2. Bandwidth: the trivial lower bound and the paper's Equation-2
     sufficient bound. *)
  Format.printf "@.Bandwidth demand (lower bound): %a blocks/sec@."
    Pindisk_util.Q.pp (Bandwidth.demand files);
  Format.printf "Equation-2 sufficient bandwidth: %d blocks/sec@."
    (Bandwidth.required files);

  (* 3. Build the broadcast program at the smallest bandwidth the
     schedulers realize. *)
  let bandwidth =
    match Bandwidth.minimum files with
    | Some b -> b
    | None -> failwith "unschedulable (cannot happen within 2x the bound)"
  in
  let program =
    match Shard.design ~channels:1 ~bandwidth files with
    | Ok design -> Option.get (Shard.program design)
    | Error e -> failwith e
  in
  Format.printf "Achieved bandwidth: %d blocks/sec (overhead %.2fx)@." bandwidth
    (Bandwidth.overhead ~achieved:bandwidth files);
  Format.printf "@.Broadcast period (%d slots): %a@." (Program.period program)
    Schedule.pp (Program.schedule program);
  Format.printf "Program data cycle: %d slots@." (Program.data_cycle program);
  List.iter
    (fun f ->
      match Program.delta program f.File_spec.id with
      | Some d ->
          Format.printf "  %-9s: %d slots/period, consecutive blocks <= %d apart@."
            f.File_spec.name
            (Program.occurrences_per_period program f.File_spec.id)
            d
      | None -> ())
    files;

  (* 4. A client tunes in mid-broadcast and retrieves "positions" while 15%
     of blocks are lost; IDA redundancy absorbs the losses. *)
  let outcome =
    match
      Client.retrieve ~program ~file:1 ~needed:4 ~start:13
        ~fault:(Fault.bernoulli ~p:0.15 ~seed:7) ()
    with
    | Ok o -> o
    | Error e -> Format.kasprintf failwith "request rejected: %a" Client.pp_error e
  in
  Format.printf "@.Client retrieving 'positions' under 15%% block loss:@.  %a@."
    Client.pp_outcome outcome;
  let deadline = bandwidth * 8 in
  Format.printf "  deadline (B*T = %d slots) %s@." deadline
    (if Client.deadline_met outcome ~deadline then "MET" else "MISSED");
  if outcome.Client.losses > 1 then
    Format.printf
      "  (%d losses hit this retrieval; the program only provisions r = 1 \
       for 'positions', so the pinwheel guarantee covers one loss per \
       window)@."
      outcome.Client.losses
