(* E16 -- ablation: what the exact-period decomposition loses.

   The constructive schedulers turn a multi-unit task (a, b) into a unit
   tasks of window b placed at exact periods -- sufficient, never
   necessary. The exact search (Exact.decide, which takes multi-unit
   tasks as they are) measures the gap on an exhaustive family of small
   instances. *)

module P = Pindisk_pinwheel
module Task = P.Task
module Q = Pindisk_util.Q

let run () =
  Format.printf
    "== E16 / ablation: exact-period decomposition vs multi-unit exact \
     search ==@.";
  Format.printf "  %-26s %9s %9s %9s %8s@." "family (exhaustive)" "instances"
    "feasible" "heur-ok" "recall";
  List.iter
    (fun (label, instances) ->
      let feasible = ref 0 and heur = ref 0 and total = ref 0 in
      List.iter
        (fun sys ->
          incr total;
          match P.Exact.decide sys with
          | P.Exact.Feasible _ ->
              incr feasible;
              if P.Scheduler.plan sys <> None then incr heur
          | P.Exact.Infeasible ->
              (* Soundness: the heuristics must not "schedule" it. *)
              assert (P.Scheduler.plan sys = None)
          | P.Exact.Too_large -> decr total)
        instances;
      Format.printf "  %-26s %9d %9d %9d %7.0f%%@." label !total !feasible !heur
        (if !feasible = 0 then 100.0
         else 100.0 *. float_of_int !heur /. float_of_int !feasible))
    [
      ( "2 tasks, b <= 6",
        List.concat_map
          (fun b1 ->
            List.concat_map
              (fun a1 ->
                List.concat_map
                  (fun b2 ->
                    List.filter_map
                      (fun a2 ->
                        if
                          Q.( <= )
                            (Q.add (Q.make a1 b1) (Q.make a2 b2))
                            Q.one
                        then
                          Some
                            [ Task.make ~id:0 ~a:a1 ~b:b1; Task.make ~id:1 ~a:a2 ~b:b2 ]
                        else None)
                      (List.init b2 (fun i -> i + 1)))
                  (List.init 4 (fun i -> i + 3)))
              (List.init b1 (fun i -> i + 1)))
          (List.init 4 (fun i -> i + 3)) );
      ( "3 tasks, b <= 5, a <= 2",
        List.concat_map
          (fun b1 ->
            List.concat_map
              (fun b2 ->
                List.concat_map
                  (fun b3 ->
                    List.concat_map
                      (fun a1 ->
                        List.concat_map
                          (fun a2 ->
                            List.filter_map
                              (fun a3 ->
                                let sys =
                                  [
                                    Task.make ~id:0 ~a:(min a1 b1) ~b:b1;
                                    Task.make ~id:1 ~a:(min a2 b2) ~b:b2;
                                    Task.make ~id:2 ~a:(min a3 b3) ~b:b3;
                                  ]
                                in
                                if Q.( <= ) (Task.system_density sys) Q.one
                                then Some sys
                                else None)
                              [ 1; 2 ])
                          [ 1; 2 ])
                      [ 1; 2 ])
                  [ 3; 4; 5 ])
              [ 3; 4; 5 ])
          [ 3; 4; 5 ] );
    ];
  Format.printf
    "  (recall: share of exactly-feasible multi-unit systems the \
     decomposition-@.   based heuristic stack places. The assert inside \
     guards soundness: nothing@.   infeasible is ever \"scheduled\". \
     Recall below 100%% is the price of exact-@.   period placement; the \
     paper's bandwidth bounds absorb it inside the 10/7@.   factor.)@.@."
