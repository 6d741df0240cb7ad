(* E17 -- ablation: schedule quality across schedulers.

   Two schedules can both satisfy pc(a, b) yet differ in how evenly they
   space a task's slots -- and Lemma 2's recovery bound is r * Delta, so
   spacing IS the fault-tolerance quality of a broadcast program. For
   each scheduler we report the mean and worst ratio Delta_i / b_i over
   tasks (1.0 would mean a task's whole window can pass with a single
   occurrence at the very end; small is good), plus the achieved period. *)

module P = Pindisk_pinwheel
module Q = Pindisk_util.Q
module Stats = Pindisk_util.Stats

let algorithms =
  [
    ("Sa", P.Scheduler.Sa);
    ("Sx", P.Scheduler.Sx);
    ("Sr", P.Scheduler.Sr);
    ("Auto", P.Scheduler.Auto);
  ]

let run () =
  Format.printf "== E17 / ablation: spacing quality (Delta/b) per scheduler ==@.";
  Format.printf "  (200 random unit systems, density <= 0.6, windows <= 40)@.";
  Format.printf "  %-6s %9s %11s %11s %12s@." "sched" "placed" "mean D/b"
    "worst D/b" "mean period";
  List.iter
    (fun (label, algorithm) ->
      let ratio = Stats.create () and periods = Stats.create () in
      let placed = ref 0 and total = ref 0 in
      for seed = 0 to 199 do
        let sys =
          P.Gen.unit_system_with_density ~seed ~n:(3 + (seed mod 5)) ~max_b:40
            ~target:0.6
        in
        if sys <> [] then begin
          incr total;
          match P.Scheduler.plan ~algorithm sys with
          | None -> ()
          | Some plan ->
              let sched = P.Plan.to_schedule plan in
              incr placed;
              Stats.add_int periods (P.Schedule.period sched);
              List.iter
                (fun t ->
                  match P.Schedule.max_gap sched t.P.Task.id with
                  | Some d ->
                      Stats.add ratio
                        (float_of_int d /. float_of_int t.P.Task.b)
                  | None -> ())
                sys
        end
      done;
      Format.printf "  %-6s %8.0f%% %11.2f %11.2f %12.0f@." label
        (100.0 *. float_of_int !placed /. float_of_int !total)
        (Stats.mean ratio) (Stats.max_value ratio) (Stats.mean periods))
    algorithms;
  Format.printf
    "  (exact-period constructions keep Delta = the specialized period, \
     which@.   never exceeds b -- ratios are at most 1.00 by construction \
     and average@.   well under it; Sr's equal-rate rotation gives the \
     tightest spacing and@.   the shortest periods when it applies. Every \
     program therefore inherits@.   a usable Lemma-2 bound without any \
     extra machinery.)@.@."
