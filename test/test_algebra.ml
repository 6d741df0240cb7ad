module A = Pindisk_algebra
module Bc = A.Bc
module Rules = A.Rules
module Convert = A.Convert
module P = Pindisk_pinwheel
module Task = P.Task
module Schedule = P.Schedule
module Verify = P.Verify
module Scheduler = P.Scheduler
module Q = Pindisk_util.Q

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let q_str = Q.to_string
let pc a b = Task.make ~id:0 ~a ~b

(* ------------------------------------------------------------------ *)
(* Bc                                                                  *)
(* ------------------------------------------------------------------ *)

let test_bc_make () =
  let bc = Bc.make ~file:1 ~m:5 ~d:[ 100; 105; 110 ] in
  check_int "faults" 2 (Bc.faults_tolerated bc);
  Alcotest.check_raises "unsatisfiable"
    (Invalid_argument "Bc.make: unsatisfiable: d^(1) = 5 < m + 1 = 6") (fun () ->
      ignore (Bc.make ~file:0 ~m:5 ~d:[ 5; 5 ]));
  Alcotest.check_raises "empty vector" (Invalid_argument "Bc.make: empty latency vector")
    (fun () -> ignore (Bc.make ~file:0 ~m:1 ~d:[]))

let test_bc_to_pcs () =
  (* Equation 3. *)
  let bc = Bc.make ~file:3 ~m:2 ~d:[ 5; 6; 6 ] in
  Alcotest.(check (list (triple int int int)))
    "pc(2,5), pc(3,6), pc(4,6)"
    [ (3, 2, 5); (3, 3, 6); (3, 4, 6) ]
    (List.map (fun t -> (t.Task.id, t.Task.a, t.Task.b)) (Bc.to_pcs bc))

let test_bc_density_lower_bound () =
  (* Example 2: max{0.05, 6/105, 7/110, 8/115, 9/120} = 9/120 = 0.075. *)
  let bc = Bc.make ~file:0 ~m:5 ~d:[ 100; 105; 110; 115; 120 ] in
  Alcotest.(check string) "3/40" "3/40" (q_str (Bc.density_lower_bound bc));
  (* Example 4: bc(4, [8; 9]): max{1/2, 5/9} = 5/9. *)
  let bc4 = Bc.make ~file:0 ~m:4 ~d:[ 8; 9 ] in
  Alcotest.(check string) "5/9" "5/9" (q_str (Bc.density_lower_bound bc4))

let test_bc_check () =
  (* Schedule "1 . 1 ." satisfies bc(1, 1, [2]) but not bc(1, 1, [2; 3]). *)
  let s = Schedule.make [| 1; Schedule.idle; 1; Schedule.idle |] in
  check_bool "bc(1,[2]) holds" true (Bc.check s (Bc.make ~file:1 ~m:1 ~d:[ 2 ]) = None);
  check_bool "bc(1,[2;3]) fails" true (Bc.check s (Bc.make ~file:1 ~m:1 ~d:[ 2; 3 ]) <> None)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let test_r0 () =
  (match Rules.r0 (pc 3 5) ~x:1 ~y:2 with
  | Some t ->
      check_int "a" 2 t.Task.a;
      check_int "b" 7 t.Task.b
  | None -> Alcotest.fail "r0 applies");
  check_bool "a-x < 1" true (Rules.r0 (pc 1 5) ~x:1 ~y:0 = None)

let test_r1 () =
  let t = Rules.r1 (pc 2 3) ~n:2 in
  check_int "a" 4 t.Task.a;
  check_int "b" 6 t.Task.b

let test_r2 () =
  (match Rules.r2 (pc 2 3) ~x:1 with
  | Some t ->
      check_int "a" 1 t.Task.a;
      check_int "b" 2 t.Task.b
  | None -> Alcotest.fail "r2 applies");
  check_bool "too much" true (Rules.r2 (pc 2 3) ~x:2 = None)

let test_r1_reduce () =
  let t = Rules.r1_reduce (pc 4 8) in
  check_int "a" 1 t.Task.a;
  check_int "b" 2 t.Task.b;
  let u = Rules.r1_reduce (pc 2 5) in
  check_int "coprime untouched a" 2 u.Task.a;
  check_int "coprime untouched b" 5 u.Task.b

let test_r3 () =
  (* TR1 inner step: pc(m+j, d_j) <= pc(1, floor(d_j / (m+j))). *)
  let t = Rules.r3 (pc 6 105) in
  check_int "b" 17 t.Task.b;
  check_int "a" 1 t.Task.a

let test_implies_examples () =
  (* From the paper's worked examples. *)
  check_bool "pc(2,3) => pc(4,6) (R1)" true (Rules.implies (pc 2 3) (pc 4 6));
  check_bool "pc(2,3) => pc(2,5) (R0)" true (Rules.implies (pc 2 3) (pc 2 5));
  check_bool "pc(2,3) => pc(1,2) (R2)" true (Rules.implies (pc 2 3) (pc 1 2));
  check_bool "pc(4,6) => pc(3,6)" true (Rules.implies (pc 4 6) (pc 3 6));
  check_bool "pc(1,2) => pc(4,8)" true (Rules.implies (pc 1 2) (pc 4 8));
  check_bool "pc(1,2) /=> pc(5,9)" false (Rules.implies (pc 1 2) (pc 5 9));
  check_bool "pc(2,3) => pc(5,9)" true (Rules.implies (pc 2 3) (pc 5 9));
  check_bool "pc(1,3) /=> pc(1,2)" false (Rules.implies (pc 1 3) (pc 1 2));
  check_bool "reflexive" true (Rules.implies (pc 3 7) (pc 3 7))

let test_implies_is_sound_on_schedules () =
  (* Soundness spot-check: whenever implies got want, every schedule
     satisfying got satisfies want. Exhaust small cases using exact
     schedules of got as a single-task system. *)
  for a = 1 to 4 do
    for b = a to 8 do
      for c = 1 to 4 do
        for e = c to 8 do
          if Rules.implies (pc a b) (pc c e) then begin
            (* Periodic schedule placing [a] occurrences evenly in [b] slots
               satisfies pc(a,b); check it also satisfies pc(c,e). *)
            let slots = Array.make b Schedule.idle in
            for k = 0 to a - 1 do
              slots.(k * b / a) <- 0
            done;
            let s = Schedule.make slots in
            if Verify.check_pc s ~task:0 ~a ~b = None then
              check_bool
                (Printf.sprintf "(%d,%d) => (%d,%d) sound" a b c e)
                true
                (Verify.check_pc s ~task:0 ~a:c ~b:e = None)
          end
        done
      done
    done
  done

let test_max_guaranteed () =
  (* pc(2,35) forces 6 occurrences into every window of 110 (Example 3). *)
  check_int "g = 6" 6 (Rules.max_guaranteed (pc 2 35) ~window:110);
  check_int "g = 4" 4 (Rules.max_guaranteed (pc 1 2) ~window:9);
  check_int "none" 0 (Rules.max_guaranteed (pc 1 10) ~window:5)

let test_r4_r5_alias () =
  Alcotest.(check (option (pair int int)))
    "r4: base (4,8), target (5,9)" (Some (1, 9))
    (Rules.r4_alias ~base:(pc 4 8) ~target:(pc 5 9));
  Alcotest.(check (option (pair int int)))
    "r4 window shrank" None
    (Rules.r4_alias ~base:(pc 4 8) ~target:(pc 5 7));
  (* Example 4: base reduced to (1,2); target (5,9): n = 5, alias (1, 10). *)
  Alcotest.(check (option (pair int int)))
    "r5" (Some (1, 10))
    (Rules.r5_alias ~base:(pc 1 2) ~target:(pc 5 9));
  Alcotest.(check (option (pair int int)))
    "r5 base suffices" None
    (Rules.r5_alias ~base:(pc 1 2) ~target:(pc 4 8))

(* ------------------------------------------------------------------ *)
(* Convert: the paper's Examples 2-6                                  *)
(* ------------------------------------------------------------------ *)

let density_str nice = q_str (Convert.density nice)

let test_example2 () =
  (* F_i: m = 5, d = [100;105;110;115;120]. TR1 gives pc(1,13), density
     1/13 = 0.0769, within 2.5% of the 0.075 lower bound. *)
  let bc = Bc.make ~file:0 ~m:5 ~d:[ 100; 105; 110; 115; 120 ] in
  (match Convert.tr1 bc with
  | [ e ] ->
      check_int "window 13" 13 e.Convert.b;
      check_int "unit" 1 e.Convert.a
  | _ -> Alcotest.fail "tr1 yields one condition");
  let _, best = Convert.best bc in
  check_bool "best density <= 1/13" true
    Q.(Convert.density best <= Q.make 1 13)

let test_example3 () =
  (* m = 6, d = [105;110]: TR1 gives pc(1,15) (1/15 = 0.0667); TR2 gives
     pc(6,105) ^ pc(1,110): 6/105 + 1/110 = 0.0662, which wins. *)
  let bc = Bc.make ~file:0 ~m:6 ~d:[ 105; 110 ] in
  (match Convert.tr1 bc with
  | [ e ] -> check_int "tr1 window 15" 15 e.Convert.b
  | _ -> Alcotest.fail "tr1 yields one condition");
  let tr2 = Convert.tr2 bc in
  (* 6/105 + 1/110 = 2/35 + 1/110 = 44/770 + 7/770 = 51/770. *)
  Alcotest.(check string) "tr2 density" "51/770" (density_str tr2);
  let label, best = Convert.best bc in
  check_bool "paper's TR2 density achieved or beaten" true
    Q.(Convert.density best <= Q.make 51 770);
  ignore label

let test_example4 () =
  (* m = 4, d = [8;9]: paper reaches density 0.6 = 1/2 + 1/10 via
     pc(1,2) ^ pc(1,10). Lower bound 5/9. *)
  let bc = Bc.make ~file:0 ~m:4 ~d:[ 8; 9 ] in
  let tr2 = Convert.tr2 bc in
  Alcotest.(check string) "tr2 = paper's 3/5" "3/5" (density_str tr2);
  (match tr2 with
  | [ base; alias ] ->
      check_int "base a" 1 base.Convert.a;
      check_int "base b" 2 base.Convert.b;
      check_int "alias a" 1 alias.Convert.a;
      check_int "alias b" 10 alias.Convert.b
  | _ -> Alcotest.fail "tr2 yields base + one alias");
  let _, best = Convert.best bc in
  check_bool "best <= 3/5" true Q.(Convert.density best <= Q.make 3 5)

let test_example5 () =
  (* bc(2, [5;6;6]): the paper derives pc(2,3), density 2/3, equal to the
     lower bound (optimal). Our single-condition search must find it. *)
  let bc = Bc.make ~file:0 ~m:2 ~d:[ 5; 6; 6 ] in
  (match Convert.best_single bc with
  | [ e ] ->
      check_int "a = 2" 2 e.Convert.a;
      check_int "b = 3" 3 e.Convert.b
  | _ -> Alcotest.fail "single yields one condition");
  let _, best = Convert.best bc in
  Alcotest.(check string) "optimal 2/3" "2/3" (density_str best);
  Alcotest.(check string) "lower bound met" (q_str (Bc.density_lower_bound bc))
    (density_str best)

let test_example6 () =
  (* bc(1, [2;3]) = pc(1,2) ^ pc(2,3); pc(2,3) alone is equivalent
     (density 2/3), while literal TR2 would cost 1/2 + 2/3... the paper
     notes TR2 direct costs 1/2 + 1/3 = 5/6. *)
  let bc = Bc.make ~file:0 ~m:1 ~d:[ 2; 3 ] in
  (match Convert.best_single bc with
  | [ e ] ->
      check_int "a = 2" 2 e.Convert.a;
      check_int "b = 3" 3 e.Convert.b
  | _ -> Alcotest.fail "single yields one condition");
  let _, best = Convert.best bc in
  Alcotest.(check string) "2/3" "2/3" (density_str best)

let test_best_never_above_tr1_tr2 () =
  let bc = Bc.make ~file:0 ~m:3 ~d:[ 10; 12; 15 ] in
  let _, best = Convert.best bc in
  check_bool "<= tr1" true Q.(Convert.density best <= Convert.density (Convert.tr1 bc));
  check_bool "<= tr2" true Q.(Convert.density best <= Convert.density (Convert.tr2 bc))

let test_compile_nice_and_sound () =
  let bcs =
    [
      Bc.make ~file:0 ~m:2 ~d:[ 8; 10 ];
      Bc.make ~file:1 ~m:1 ~d:[ 6; 9; 12 ];
      Bc.make ~file:2 ~m:3 ~d:[ 30 ];
    ]
  in
  let tasks = Convert.compile bcs in
  let ids = List.map (fun (t, _) -> t.Task.id) tasks in
  check_bool "nice" true (List.length (List.sort_uniq compare ids) = List.length ids);
  check_bool "pseudo ids above file ids" true
    (List.for_all (fun (t, _) -> t.Task.id > 2) tasks);
  (* Schedule the nice system, project pseudo-tasks onto files, and check
     the ORIGINAL broadcast conditions. *)
  match Scheduler.plan (List.map fst tasks) with
  | None -> Alcotest.fail "nice system should be schedulable"
  | Some plan ->
      let sched = P.Plan.to_schedule plan in
      let file_of =
        let tbl = Hashtbl.create 8 in
        List.iter (fun (t, f) -> Hashtbl.replace tbl t.Task.id f) tasks;
        fun id -> match Hashtbl.find_opt tbl id with Some f -> f | None -> Schedule.idle
      in
      let projected = Schedule.map_tasks sched file_of in
      List.iter
        (fun bc ->
          match Bc.check projected bc with
          | None -> ()
          | Some v ->
              Alcotest.failf "pc(%d, %d, %d) violated at slot %d: %d found"
                v.Verify.task v.Verify.a v.Verify.b v.Verify.window_start
                v.Verify.found)
        bcs

let test_compile_duplicate_files () =
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Convert.compile: duplicate file ids") (fun () ->
      ignore
        (Convert.compile [ Bc.make ~file:0 ~m:1 ~d:[ 3 ]; Bc.make ~file:0 ~m:1 ~d:[ 4 ] ]))

(* qcheck: conversion soundness end-to-end on random broadcast conditions *)

let gen_bc =
  QCheck2.Gen.(
    let* file = int_range 0 3 in
    let* m = int_range 1 4 in
    let* r = int_range 0 3 in
    let* slack0 = int_range 1 24 in
    let* increments = list_size (return r) (int_range 0 6) in
    let d0 = (m * (slack0 + 1)) + (m / 2) in
    let rec build prev j = function
      | [] -> []
      | inc :: rest ->
          (* Keep the vector satisfiable: d_j >= m + j. *)
          let dj = max (prev + inc) (m + j) in
          dj :: build dj (j + 1) rest
    in
    return (Bc.make ~file ~m ~d:(d0 :: build d0 1 increments)))

let prop_conversion_sound =
  QCheck2.Test.make ~name:"best conversion implies the bc (via schedule check)" ~count:120
    gen_bc
    (fun bc ->
      let _, nice = Convert.best bc in
      (* Build a schedule satisfying exactly the nice conditions, with each
         entry as its own task, then check the original bc on the
         projection. Use the scheduler; skip instances it cannot place. *)
      let tasks =
        List.mapi (fun i e -> (Task.make ~id:(i + 10) ~a:e.Convert.a ~b:e.Convert.b, e.Convert.file)) nice
      in
      match Scheduler.plan (List.map fst tasks) with
      | None -> true (* inconclusive: heuristic scheduler failed *)
      | Some plan ->
          let sched = P.Plan.to_schedule plan in
          let file_of id =
            match List.assoc_opt id (List.map (fun (t, f) -> (t.Task.id, f)) tasks) with
            | Some f -> f
            | None -> Pindisk_pinwheel.Schedule.idle
          in
          let projected = Schedule.map_tasks sched file_of in
          Bc.check projected bc = None)

let prop_density_at_least_lower_bound =
  QCheck2.Test.make ~name:"candidate densities respect the lower bound" ~count:200 gen_bc
    (fun bc ->
      let lb = Bc.density_lower_bound bc in
      let _, nice = Convert.best bc in
      Q.( >= ) (Convert.density nice) lb)

let () =
  Alcotest.run "algebra"
    [
      ( "bc",
        [
          Alcotest.test_case "make" `Quick test_bc_make;
          Alcotest.test_case "equation 3" `Quick test_bc_to_pcs;
          Alcotest.test_case "density lower bound" `Quick test_bc_density_lower_bound;
          Alcotest.test_case "check against schedule" `Quick test_bc_check;
        ] );
      ( "rules",
        [
          Alcotest.test_case "r0" `Quick test_r0;
          Alcotest.test_case "r1" `Quick test_r1;
          Alcotest.test_case "r2" `Quick test_r2;
          Alcotest.test_case "r1_reduce" `Quick test_r1_reduce;
          Alcotest.test_case "r3" `Quick test_r3;
          Alcotest.test_case "implies: paper examples" `Quick test_implies_examples;
          Alcotest.test_case "implies soundness on schedules" `Quick
            test_implies_is_sound_on_schedules;
          Alcotest.test_case "max_guaranteed" `Quick test_max_guaranteed;
          Alcotest.test_case "r4/r5 aliases" `Quick test_r4_r5_alias;
        ] );
      ( "convert",
        [
          Alcotest.test_case "paper example 2" `Quick test_example2;
          Alcotest.test_case "paper example 3" `Quick test_example3;
          Alcotest.test_case "paper example 4" `Quick test_example4;
          Alcotest.test_case "paper example 5" `Quick test_example5;
          Alcotest.test_case "paper example 6" `Quick test_example6;
          Alcotest.test_case "best dominates tr1/tr2" `Quick test_best_never_above_tr1_tr2;
          Alcotest.test_case "compile: nice + sound" `Quick test_compile_nice_and_sound;
          Alcotest.test_case "compile: duplicate files" `Quick test_compile_duplicate_files;
        ] );
      ( "convert-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_conversion_sound; prop_density_at_least_lower_bound ] );
    ]
