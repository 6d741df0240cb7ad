(* E3/E4 -- Equations 1 and 2: the 10/7 bandwidth upper bound. For random
   file sets, the Equation bandwidth must be schedulable, and the smallest
   schedulable bandwidth's overhead over the Sum((m+r)/T) lower bound must
   stay below the promised 43%. *)

module File_spec = Pindisk.File_spec
module Bandwidth = Pindisk.Bandwidth
module Q = Pindisk_util.Q

let random_files rng ~n ~fault_tolerant =
  List.init n (fun id ->
      let blocks = 1 + Random.State.int rng 6 in
      let latency = 2 + Random.State.int rng 20 in
      let tolerance =
        if fault_tolerant then Random.State.int rng 4 else 0
      in
      File_spec.make ~id ~blocks ~latency ~tolerance ())

let sweep ~label ~fault_tolerant ~trials =
  let rng = Random.State.make [| (if fault_tolerant then 4 else 2) |] in
  let sched_at_eq = ref 0 in
  let overhead_sum = ref 0.0 and overhead_max = ref 0.0 in
  let achieved_overhead_sum = ref 0.0 and achieved_overhead_max = ref 0.0 in
  let ok = ref 0 in
  for _ = 1 to trials do
    (* Keep total demand >= 2 blocks/sec so ceiling effects don't swamp
       the 10/7 factor the experiment is about. *)
    let rec draw () =
      let n = 3 + Random.State.int rng 5 in
      let files = random_files rng ~n ~fault_tolerant in
      if Q.( >= ) (Bandwidth.demand files) (Q.of_int 2) then files else draw ()
    in
    let files = draw () in
    let eq = Bandwidth.required files in
    if Bandwidth.schedulable ~bandwidth:eq files then incr sched_at_eq;
    let o_eq = Bandwidth.overhead ~achieved:eq files in
    overhead_sum := !overhead_sum +. o_eq;
    overhead_max := max !overhead_max o_eq;
    match Bandwidth.minimum files with
    | Some b ->
        incr ok;
        let o = Bandwidth.overhead ~achieved:b files in
        achieved_overhead_sum := !achieved_overhead_sum +. o;
        achieved_overhead_max := max !achieved_overhead_max o
    | None -> ()
  done;
  let ft = float_of_int trials in
  Format.printf "  %-24s %9.1f%% %10.2f %10.2f %10.2f %10.2f@." label
    (100.0 *. float_of_int !sched_at_eq /. ft)
    (!overhead_sum /. ft) !overhead_max
    (!achieved_overhead_sum /. float_of_int !ok)
    !achieved_overhead_max;
  assert (!ok = trials)

let run () =
  Format.printf
    "== E3/E4 / Equations 1-2: bandwidth sufficiency and overhead (random \
     file sets) ==@.";
  Format.printf "  %-24s %10s %10s %10s %10s %10s@." "" "sched@eq"
    "eq-ovh avg" "eq-ovh max" "min-ovh avg" "min-ovh max";
  sweep ~label:"E3: real-time (r=0)" ~fault_tolerant:false ~trials:150;
  sweep ~label:"E4: fault-tolerant (r>0)" ~fault_tolerant:true ~trials:150;
  Format.printf
    "  (sched@eq: share of instances schedulable at the Equation-1/2 \
     bandwidth --@.   the paper promises 100%% given a 7/10-density \
     scheduler; eq-ovh: the 10/7@.   ceiling's overhead over the demand \
     lower bound, <= ~1.43 + rounding; min-ovh:@.   overhead of the \
     smallest bandwidth our schedulers actually realize.)@.@."
