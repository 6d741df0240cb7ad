(* E6 -- density thresholds of the pinwheel schedulers (Section 3.1).

   Theory landmarks: any system needs density <= 1; Holte et al.'s
   single-integer reduction handles <= 1/2; Chan & Chin reach 7/10;
   Kawamura proves every system up to 5/6 schedulable, and
   {(1,2),(1,3),(1,n)} shows 5/6 + eps is infeasible for three tasks.
   The sweep measures each scheduler's success rate on random unit
   systems (Auto ends with Exact.decide's state-bounded search), and
   calibrates against exact feasibility on small windows. *)

module P = Pindisk_pinwheel
module Gen = P.Gen
module Scheduler = P.Scheduler
module Exact = P.Exact
module Task = P.Task
module Q = Pindisk_util.Q

let densities = [ 0.45; 0.55; 0.65; 0.7; 0.75; 0.8; 0.85; 0.9; 0.95; 1.0 ]

let success_rate algorithm systems =
  let ok =
    List.length (List.filter (fun s -> Scheduler.plan ~algorithm s <> None) systems)
  in
  100.0 *. float_of_int ok /. float_of_int (List.length systems)

let run () =
  Format.printf "== E6 / density sweep: scheduler success rates ==@.";
  Format.printf "  (100 random unit systems per point, 4-8 tasks, windows <= 40)@.";
  Format.printf "  %-8s %8s %8s %8s %8s %8s@." "density" "Sa" "Sx" "Sr" "Sxy"
    "Auto";
  List.iter
    (fun target ->
      let systems =
        List.filter_map
          (fun seed ->
            let sys =
              Gen.unit_system_with_density ~seed ~n:(4 + (seed mod 5)) ~max_b:40
                ~target
            in
            (* Keep only systems whose density is genuinely near the target
               (within 0.05 below), so the sweep measures what it claims. *)
            let d = Q.to_float (Task.system_density sys) in
            if sys <> [] && d > target -. 0.05 then Some sys else None)
          (List.init 260 (fun i -> i))
      in
      let systems = List.filteri (fun i _ -> i < 100) systems in
      if systems <> [] then
        Format.printf "  %-8.2f %7.0f%% %7.0f%% %7.0f%% %7.0f%% %7.0f%%@." target
          (success_rate Scheduler.Sa systems)
          (success_rate Scheduler.Sx systems)
          (success_rate Scheduler.Sr systems)
          (success_rate Scheduler.Sxy systems)
          (success_rate Scheduler.Auto systems))
    densities;
  Format.printf
    "  (Sa is guaranteed below 1/2 and Sx dominates it; the Sx/Auto \
     columns@.   should stay near 100%% through 0.70 -- the Chan-Chin \
     regime the paper's@.   Equations 1-2 rely on -- and decay toward \
     1.0.)@.@.";

  (* Calibration against exact feasibility on small instances. *)
  Format.printf "  Calibration vs exact search (3-4 tasks, windows <= 12):@.";
  Format.printf "  %-8s %10s %10s %10s@." "density" "feasible" "Auto-finds"
    "recall";
  List.iter
    (fun target ->
      let feasible = ref 0 and found = ref 0 and total = ref 0 in
      for seed = 0 to 199 do
        let sys =
          Gen.unit_system_with_density ~seed ~n:(3 + (seed mod 2)) ~max_b:12
            ~target
        in
        if sys <> [] && Q.to_float (Task.system_density sys) > target -. 0.08
        then begin
          incr total;
          match Exact.decide sys with
          | Exact.Feasible _ ->
              incr feasible;
              if Scheduler.plan sys <> None then incr found
          | Exact.Infeasible | Exact.Too_large -> ()
        end
      done;
      if !total > 0 && !feasible > 0 then
        Format.printf "  %-8.2f %9.0f%% %9.0f%% %9.0f%%@." target
          (100.0 *. float_of_int !feasible /. float_of_int !total)
          (100.0 *. float_of_int !found /. float_of_int !total)
          (100.0 *. float_of_int !found /. float_of_int !feasible))
    [ 0.6; 0.7; 0.8; 0.9; 1.0 ];
  Format.printf
    "  (recall = share of exactly-feasible instances the heuristic stack \
     places.@.   Auto falls back to exact search on small instances, so \
     recall here is 100%%.)@.@.";

  (* Structured families: each scheduler has an axis it owns. *)
  Format.printf "  Structured instance families (density ~0.95, success rates):@.";
  Format.printf "  %-26s %8s %8s %8s %8s@." "family" "Sa" "Sx" "Sr" "Auto";
  let families =
    [
      ( "harmonic (b = x*2^k)",
        fun seed ->
          let rng = Random.State.make [| seed |] in
          let x = 3 + Random.State.int rng 3 in
          let rec draw n used acc =
            if n = 0 then acc
            else
              let b = x * (1 lsl Random.State.int rng 3) in
              let d = 1.0 /. float_of_int b in
              if used +. d <= 0.95 then
                draw (n - 1) (used +. d) ((List.length acc, b) :: acc)
              else acc
          in
          List.map (fun (id, b) -> Task.unit ~id ~b) (draw 8 0.0 []) );
      ( "two-distinct (b in {g, qg+r})",
        fun seed ->
          let rng = Random.State.make [| seed |] in
          let g = 2 + Random.State.int rng 3 in
          let big = (g * (2 + Random.State.int rng 4)) + Random.State.int rng g in
          (* Fill every column rotation leaves free: (g-1) columns, each
             serving floor(big/g) sharers -- the regime where power-of-two
             specialization over-rounds and fails. *)
          let n_big = (g - 1) * (big / g) in
          Task.unit ~id:0 ~b:g
          :: List.init n_big (fun i -> Task.unit ~id:(i + 1) ~b:big) );
      ( "uniform random",
        fun seed ->
          Gen.unit_system_with_density ~seed ~n:7 ~max_b:40 ~target:0.95 );
    ]
  in
  List.iter
    (fun (label, make_family) ->
      let systems =
        List.filter_map
          (fun seed ->
            let sys = make_family seed in
            match Task.check_system sys with
            | Ok () when sys <> [] -> Some sys
            | _ -> None)
          (List.init 100 (fun i -> i))
      in
      Format.printf "  %-26s %7.0f%% %7.0f%% %7.0f%% %7.0f%%@." label
        (success_rate Scheduler.Sa systems)
        (success_rate Scheduler.Sx systems)
        (success_rate Scheduler.Sr systems)
        (success_rate Scheduler.Auto systems))
    families;
  Format.printf
    "  (chain structure is Sx's axis, multiple structure is Sr's; Auto \
     unions@.   them, which is why it dominates every family.)@.@.";

  (* The paper's infeasible family. *)
  Format.printf "  Paper's Example-1 family {(1,2),(1,3),(1,n)} (density 5/6 + 1/n):@.   ";
  List.iter
    (fun n ->
      let sys = [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:3; Task.unit ~id:2 ~b:n ] in
      Format.printf "n=%d:%s " n
        (match Exact.decide sys with
        | Exact.Infeasible -> "infeasible"
        | Exact.Feasible _ -> "FEASIBLE?!"
        | Exact.Too_large -> "too-large"))
    [ 10; 30; 60; 100 ];
  Format.printf "@.  (exact search proves infeasibility for every finite n tried.)@.@."
