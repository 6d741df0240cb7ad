(* E14 -- update dissemination and temporal consistency: how server
   update rates interact with the broadcast period (the paper's absolute
   temporal consistency motivation, and its citation of update
   dissemination work). *)

module Program = Pindisk.Program
module Staleness = Pindisk_rtdb.Staleness

let run () =
  Format.printf
    "== E14 / update dissemination: age, consistency and starvation ==@.";
  (* The Figure-6 toy AIDA program; file A = 5-of-10 blocks. *)
  let p =
    Program.of_layout
      [ (0, 0); (1, 0); (0, 1); (0, 2); (1, 1); (0, 3); (1, 2); (0, 4) ]
      ~capacities:[ (0, 10); (1, 6) ]
  in
  Format.printf "  %-14s %10s %9s %9s %12s %9s@." "update period" "mean age"
    "max age" "latency" "consistent" "starved";
  List.iter
    (fun update_period ->
      let s =
        Staleness.sweep ~program:p ~file:0 ~needed:5 ~update_period ~avi:16
      in
      Format.printf "  %-14d %10.1f %9d %9.1f %11.0f%% %9d@." update_period
        s.Staleness.mean_age s.Staleness.max_age s.Staleness.mean_latency
        (100.0 *. s.Staleness.consistency_ratio)
        s.Staleness.starved)
    [ 8; 16; 24; 48; 96 ];
  Format.printf
    "  (avi = 16 slots. Faster updates give fresher data -- smaller age \
     -- until@.   the update period approaches the time a retrieval \
     needs: then version@.   changes abort collections (higher latency) \
     and, past the limit, starve@.   them. Versions switch at period \
     boundaries so IDA never mixes versions.)@.@.";

  (* A retrieval that spans periods: starvation threshold. *)
  let sparse =
    Program.of_layout [ (0, 0); (0, 1); (1, 0); (1, 1) ]
      ~capacities:[ (0, 8); (1, 2) ]
  in
  Format.printf "  Sparse file (2 of 8 blocks per 4-slot period, needs 5):@.";
  Format.printf "  %-14s %9s %12s %9s@." "update period" "latency" "consistent"
    "starved";
  List.iter
    (fun update_period ->
      let s =
        Staleness.sweep ~program:sparse ~file:0 ~needed:5 ~update_period
          ~avi:24
      in
      Format.printf "  %-14d %9.1f %11.0f%% %9d@." update_period
        s.Staleness.mean_latency
        (100.0 *. s.Staleness.consistency_ratio)
        s.Staleness.starved)
    [ 4; 8; 12; 16; 32 ];
  Format.printf
    "  (a file needing multiple periods to collect starves outright once \
     updates@.   arrive every period -- the broadcast analogue of \
     transaction restarts under@.   high update rates in real-time \
     databases.)@.@.";

  (* Snapshot-consistent transactions: both toy files in one epoch. *)
  let module Snapshot = Pindisk_rtdb.Snapshot in
  let reads =
    [ { Snapshot.file = 0; needed = 5 }; { Snapshot.file = 1; needed = 3 } ]
  in
  Format.printf
    "  Snapshot-consistent transaction over both files (same epoch):@.";
  Format.printf "  %-14s %9s %9s %10s %9s@." "update period" "mean lat"
    "max lat" "restarts" "starved";
  List.iter
    (fun update_period ->
      let s = Snapshot.sweep ~program:p ~reads ~update_period in
      Format.printf "  %-14d %9.1f %9d %10.2f %9d@." update_period
        s.Snapshot.mean_elapsed s.Snapshot.max_elapsed s.Snapshot.mean_restarts
        s.Snapshot.starved)
    [ 8; 16; 32; 64 ];
  Format.printf
    "  (serializability costs latency exactly when updates race the \
     transaction:@.   epoch flips force re-reads of items stranded in the \
     older snapshot.)@.@."
