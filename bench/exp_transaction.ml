(* E18 -- ablation: transactional reads over the broadcast.

   The paper's motivating clients run transactions touching several
   items under one deadline. A single receiver harvests all of them in
   one pass, so the exact joint worst case sits well below the naive
   "max of per-file worst cases taken at their own worst phases" only
   when phases disagree -- and always at or below their sum. *)

module File_spec = Pindisk.File_spec
module Program = Pindisk.Program
module Fault = Pindisk_sim.Fault
module Adversary = Pindisk_sim.Adversary
module Transaction = Pindisk_sim.Transaction

let files =
  [
    File_spec.make ~name:"alerts" ~id:0 ~blocks:2 ~latency:6 ~tolerance:2 ();
    File_spec.make ~name:"positions" ~id:1 ~blocks:4 ~latency:12 ~tolerance:1 ();
    File_spec.make ~name:"terrain" ~id:2 ~blocks:6 ~latency:30 ~tolerance:1 ();
  ]

let run () =
  Format.printf "== E18 / transactions: joint worst case vs per-file bounds ==@.";
  let bandwidth = Option.get (Pindisk.Bandwidth.minimum files) in
  let program =
    Option.get
      (Pindisk.Shard.program
         (Result.get_ok (Pindisk.Shard.design ~channels:1 ~bandwidth files)))
  in
  Format.printf "  (program at %d blocks/sec)@." bandwidth;
  Format.printf "  %-34s %10s %10s %10s@." "transaction (tolerances)" "joint WC"
    "max of WC" "sum of WC";
  List.iter
    (fun (label, reads) ->
      let joint = Transaction.worst_case program ~reads in
      let per_file =
        List.map
          (fun r ->
            Adversary.worst_case_retrieval program ~file:r.Transaction.file
              ~needed:r.Transaction.needed ~errors:r.Transaction.tolerate)
          reads
      in
      Format.printf "  %-34s %10d %10d %10d@." label joint
        (List.fold_left max 0 per_file)
        (List.fold_left ( + ) 0 per_file))
    [
      ( "alerts+positions (r=0)",
        [
          { Transaction.file = 0; needed = 2; tolerate = 0 };
          { Transaction.file = 1; needed = 4; tolerate = 0 };
        ] );
      ( "alerts+positions (r=2,1)",
        [
          { Transaction.file = 0; needed = 2; tolerate = 2 };
          { Transaction.file = 1; needed = 4; tolerate = 1 };
        ] );
      ( "all three (r=2,1,1)",
        [
          { Transaction.file = 0; needed = 2; tolerate = 2 };
          { Transaction.file = 1; needed = 4; tolerate = 1 };
          { Transaction.file = 2; needed = 6; tolerate = 1 };
        ] );
    ];
  Format.printf
    "  (joint WC never exceeds the max of per-file worst cases -- one \
     pass@.   serves every read -- and both sit far below the sum a \
     sequential-read@.   analysis would charge.)@.@.";

  (* Stochastic check: firm-deadline transaction miss rates. *)
  let reads =
    [
      { Transaction.file = 0; needed = 2; tolerate = 2 };
      { Transaction.file = 1; needed = 4; tolerate = 1 };
    ]
  in
  let deadline = Transaction.worst_case program ~reads in
  Format.printf "  Deadline = joint worst case (%d slots); 2000 transactions:@."
    deadline;
  Format.printf "  %-6s %10s@." "loss" "miss rate";
  List.iter
    (fun p ->
      let misses = ref 0 in
      let rng = Random.State.make [| 41 |] in
      for k = 0 to 1999 do
        let start = Random.State.int rng (Program.data_cycle program) in
        let o =
          Transaction.retrieve ~program ~reads ~start
            ~fault:(Fault.bernoulli ~p ~seed:k)
        in
        match o.Transaction.elapsed with
        | Some e when e <= deadline -> ()
        | _ -> incr misses
      done;
      Format.printf "  %5.0f%% %9.1f%%@." (100.0 *. p)
        (100.0 *. float_of_int !misses /. 2000.0))
    [ 0.0; 0.1; 0.2; 0.35 ];
  Format.printf
    "  (misses appear only when the channel ruins more receptions than \
     the@.   transaction's provisioned tolerances.)@.@."
