(* The pindisk benchmark harness: regenerates every quantitative artifact
   of the paper (tables, lemma bounds, equations, worked examples) plus
   the ablations documented in DESIGN.md, then runs the Bechamel
   micro-benchmarks.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- e1 e5   -- selected experiments
     dune exec bench/main.exe -- tables  -- all tables, no micro-benches
     dune exec bench/main.exe -- micro   -- micro-benches only *)

let experiments =
  [
    ("e1", "Figure 7: worst-case delay vs errors", Exp_fig7.run);
    ("e2", "Lemmas 1-2: delay bounds", Exp_lemmas.run);
    ("e3/e4", "Equations 1-2: bandwidth bounds", Exp_bandwidth.run);
    ("e5", "Examples 2-6: pinwheel algebra", Exp_algebra.run);
    ("e6", "Density sweep: scheduler thresholds", Exp_density.run);
    ("e7", "Error-recovery speedup tau/Delta", Exp_speedup.run);
    ("e8", "Block-size tradeoff", Exp_blocksize.run);
    ("e9", "Fault-model ablation", Exp_faults.run);
    ("e11", "Classic multi-disk vs pinwheel", Exp_multidisk.run);
    ("e12", "Client cache policies", Exp_cache.run);
    ("e13", "Air indexing vs self-identifying", Exp_indexing.run);
    ("e14", "Update dissemination / staleness", Exp_staleness.run);
    ("e15", "Population run across programs", Exp_population.run);
    ("e16", "Decomposition ablation", Exp_decomposition.run);
    ("e17", "Spacing-quality ablation", Exp_quality.run);
    ("e18", "Transactions ablation", Exp_transaction.run);
    ("e19", "Adaptive degradation: static vs closed-loop", Exp_adaptive.run);
    ("e20", "Codec engine: table-driven GF(256) + domain pool", Exp_codec.run);
    ("e21", "Scheduling scale: online dispatcher vs eager", Exp_sched.run);
    ("e22", "Chaos recovery: crash-restart cost vs fault rate", Exp_faults.run_chaos);
    ("e23", "Cohort scale: weighted classes vs per-client drive", Exp_cohort.run);
    ("e24", "Multi-channel sharding: aggregate throughput at K channels", Exp_multichannel.run);
  ]

let () =
  let args =
    Array.to_list Sys.argv |> List.tl
    |> List.map String.lowercase_ascii
  in
  let want key =
    args = [] || List.mem "all" args
    || List.exists (fun a -> List.mem a (key :: String.split_on_char '/' key)) args
  in
  let tables_only = List.mem "tables" args in
  let micro_only = List.mem "micro" args in
  Format.printf
    "pindisk benchmark harness -- reproducing Baruah & Bestavros, \
     \"Pinwheel Scheduling for Fault-tolerant Broadcast Disks\"@.@.";
  if not micro_only then
    List.iter
      (fun (key, _desc, run) -> if tables_only || want key then run ())
      experiments;
  if (not tables_only) && (args = [] || micro_only || List.mem "e10" args) then
    Micro.run ();
  Format.printf "done.@."
