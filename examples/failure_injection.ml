(* Failure injection on the paper's own toy programs (Figures 5-7).

   Builds the flat and AIDA-based programs of Figures 5 and 6 verbatim,
   then (a) recomputes Figure 7's worst-case delay table with an exact
   adversary, (b) checks Lemmas 1 and 2 against it, and (c) measures
   stochastic deadline-miss ratios under increasing loss rates.

   Run with: dune exec examples/failure_injection.exe *)

module Program = Pindisk.Program
module Bounds = Pindisk.Bounds
module Fault = Pindisk_sim.Fault
module Adversary = Pindisk_sim.Adversary
module Experiment = Pindisk_sim.Experiment

(* Figure 6's period: A1 B1 A2 A3 B2 A4 B3 A5 (A = 0, B = 1). *)
let layout = [ (0, 0); (1, 0); (0, 1); (0, 2); (1, 1); (0, 3); (1, 2); (0, 4) ]
let flat = Program.of_layout layout ~capacities:[ (0, 5); (1, 3) ]
let ida = Program.of_layout layout ~capacities:[ (0, 10); (1, 6) ]

let () =
  Format.printf "Toy disk of Figures 5/6: file A = 5 blocks, file B = 3 blocks,@.";
  Format.printf "period %d; AIDA disperses A->10 and B->6 blocks (data cycle %d).@.@."
    (Program.period ida) (Program.data_cycle ida);

  (* (a) Figure 7, recomputed exactly. *)
  Format.printf "Worst-case extra delay vs number of errors (exact adversary):@.";
  Format.printf "  errors |  A+IDA  B+IDA |  A flat  B flat | paper IDA  paper flat@.";
  let paper_ida = [| 0; 3; 4; 6; 7; 8 |] and paper_flat = [| 0; 8; 16; 24; 32; 40 |] in
  for r = 0 to 5 do
    let d p file needed = Adversary.worst_case_delay p ~file ~needed ~errors:r in
    Format.printf "  %6d | %6d %6d | %7d %7d | %9d %11d@." r (d ida 0 5) (d ida 1 3)
      (d flat 0 5) (d flat 1 3) paper_ida.(r) paper_flat.(r)
  done;
  Format.printf
    "  (flat column matches the paper exactly: r x tau = 8r. The paper's IDA@.\
    \   column is an informal estimate that exceeds its own Lemma-2 bound at@.\
    \   r=1; our exact values obey it.)@.@.";

  (* (b) Lemma checks. *)
  let delta_a = Option.get (Program.delta ida 0) in
  let delta_b = Option.get (Program.delta ida 1) in
  Format.printf "Lemma 2 spacing: Delta_A = %d, Delta_B = %d@." delta_a delta_b;
  for r = 0 to 5 do
    let da = Adversary.worst_case_delay ida ~file:0 ~needed:5 ~errors:r in
    Format.printf "  r=%d: A delay %2d <= r*Delta_A = %2d  %s@." r da
      (Bounds.lemma2 ~delta:delta_a ~errors:r)
      (if da <= Bounds.lemma2 ~delta:delta_a ~errors:r then "ok" else "VIOLATED")
  done;
  Format.printf
    "  (file B violates r*Delta beyond r = capacity - m = 3 -- the lemma's@.\
    \   implicit AIDA-redundancy assumption; see EXPERIMENTS.md.)@.@.";

  (* (c) Stochastic loss sweep. *)
  Format.printf "Deadline-miss ratio for file A (deadline 12 slots, 4000 clients):@.";
  Format.printf "  loss-rate |  AIDA   flat@.";
  List.iter
    (fun p ->
      let run program =
        Experiment.run ~program ~file:0 ~needed:5 ~deadline:12
          ~fault:(fun ~seed -> Fault.bernoulli ~p ~seed)
          ~trials:4000 ~seed:31
      in
      let a = run ida and f = run flat in
      Format.printf "  %8.0f%% | %5.1f%% %5.1f%%@." (100.0 *. p)
        (100.0 *. Experiment.miss_ratio a)
        (100.0 *. Experiment.miss_ratio f))
    [ 0.0; 0.05; 0.1; 0.2; 0.3 ]
