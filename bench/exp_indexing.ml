(* E13 -- air indexing vs self-identifying blocks (the paper's footnote
   3): access time vs tuning (awake) time as index copies vary. *)

module Program = Pindisk.Program
module Indexing = Pindisk_sim.Indexing

let run () =
  Format.printf
    "== E13 / self-identifying blocks vs (1,m) air indexing ==@.";
  let base = Program.flat [ (0, 4); (1, 6); (2, 10); (3, 4) ] in
  let file = 2 and needed = 10 in
  let plain = Indexing.self_identifying_metrics base ~file ~needed in
  Format.printf "  %-24s %12s %12s@." "protocol" "access time" "tuning time";
  Format.printf "  %-24s %12.1f %12.1f@." "self-identifying" plain.Indexing.access_time
    plain.Indexing.tuning_time;
  List.iter
    (fun copies ->
      let indexed, idx = Indexing.with_index base ~copies ~index_slots:1 in
      let m =
        Indexing.indexed_metrics indexed ~index_file:idx ~index_slots:1 ~file
          ~needed
      in
      Format.printf "  %-24s %12.1f %12.1f@."
        (Printf.sprintf "(1,%d) indexing" copies)
        m.Indexing.access_time m.Indexing.tuning_time)
    [ 1; 2; 4; 8; 12 ];
  Format.printf
    "  (indexing halves the awake time at an access-time premium; the \
     premium is@.   minimized at an intermediate m -- more copies shorten \
     the wait for an@.   index but lengthen the period -- matching the \
     classic sqrt(data/index)@.   optimum, here ~5.)@.@.";

  (* Under loss: the index is a single point of failure, which is the
     paper's footnote-3 argument for self-identifying blocks. *)
  let module Fault = Pindisk_sim.Fault in
  let module Experiment = Pindisk_sim.Experiment in
  Format.printf
    "  Under block loss (mean access / mean tuning over 600 clients):@.";
  Format.printf "  %-6s | %-22s | %-22s@." "loss" "self-identifying"
    "(1,4) indexing";
  let indexed, idx = Indexing.with_index base ~copies:4 ~index_slots:1 in
  List.iter
    (fun p ->
      (* Self-identifying: access = tuning = client retrieval time. *)
      let s =
        Experiment.run ~program:base ~file ~needed ~deadline:max_int
          ~fault:(fun ~seed -> Fault.bernoulli ~p ~seed)
          ~trials:600 ~seed:5
      in
      (* Indexed protocol with the same loss process. *)
      let acc = ref 0.0 and tun = ref 0.0 and ok = ref 0 in
      let rng = Random.State.make [| 5 |] in
      for k = 0 to 599 do
        let start = Random.State.int rng (Program.data_cycle indexed) in
        match
          Indexing.indexed_retrieve_lossy indexed ~index_file:idx
            ~index_slots:1 ~file ~needed ~start
            ~fault:(Fault.bernoulli ~p ~seed:k)
        with
        | Some m ->
            incr ok;
            acc := !acc +. m.Indexing.access_time;
            tun := !tun +. m.Indexing.tuning_time
        | None -> ()
      done;
      let okf = float_of_int !ok in
      Format.printf "  %4.0f%% | %9.1f / %9.1f | %9.1f / %9.1f@." (100.0 *. p)
        s.Experiment.mean_latency s.Experiment.mean_latency (!acc /. okf)
        (!tun /. okf))
    [ 0.0; 0.1; 0.25 ];
  Format.printf
    "  (the tuning advantage survives loss but the access-time premium \
     widens:@.   a ruined index slot strands the dozing client until the \
     next copy. This@.   is the paper's footnote-3 argument -- the index \
     is a single point of@.   failure and does not \"lend itself to a \
     clean fault-tolerant@.   organization\" -- quantified.)@.@."
