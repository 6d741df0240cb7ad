module P = Pindisk_pinwheel
module Task = P.Task
module Schedule = P.Schedule
module Verify = P.Verify
module Exact = P.Exact
module Harmonic = P.Harmonic
module Specialize = P.Specialize
module Two_chain = P.Two_chain
module Scheduler = P.Scheduler
module Plan = P.Plan
module Density = P.Density
module Gen = struct
  include P.Gen
  include Gen_systems
end
module Q = Pindisk_util.Q

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sched_of_list l = Schedule.make (Array.of_list l)
let materialize = Option.map Plan.to_schedule

(* ------------------------------------------------------------------ *)
(* Task                                                               *)
(* ------------------------------------------------------------------ *)

let test_task_make () =
  let t = Task.make ~id:3 ~a:2 ~b:5 in
  check_int "id" 3 t.Task.id;
  Alcotest.(check string) "density 2/5" "2/5" (Q.to_string (Task.density t));
  Alcotest.check_raises "a > b" (Invalid_argument "Task.make: need 1 <= a <= b")
    (fun () -> ignore (Task.make ~id:0 ~a:3 ~b:2));
  Alcotest.check_raises "a = 0" (Invalid_argument "Task.make: need 1 <= a <= b")
    (fun () -> ignore (Task.make ~id:0 ~a:0 ~b:2));
  Alcotest.check_raises "neg id" (Invalid_argument "Task.make: negative id")
    (fun () -> ignore (Task.make ~id:(-1) ~a:1 ~b:2))

let test_system_density () =
  (* Example 1 of the paper: {(1,1,2), (2,1,3)} has density 5/6. *)
  let sys = [ Task.unit ~id:1 ~b:2; Task.unit ~id:2 ~b:3 ] in
  Alcotest.(check string) "5/6" "5/6" (Q.to_string (Task.system_density sys));
  check_bool "unit system" true (Task.is_unit_system sys);
  check_bool "well-formed" true (Task.check_system sys = Ok ())

let test_duplicate_ids () =
  let sys = [ Task.unit ~id:1 ~b:2; Task.unit ~id:1 ~b:3 ] in
  check_bool "rejected" true (Result.is_error (Task.check_system sys))

let test_decompose_units () =
  let sys = [ Task.make ~id:7 ~a:3 ~b:10; Task.unit ~id:8 ~b:4 ] in
  Alcotest.(check (list (pair int int)))
    "copies" [ (7, 10); (7, 10); (7, 10); (8, 4) ] (Task.decompose_units sys)

(* ------------------------------------------------------------------ *)
(* Schedule                                                           *)
(* ------------------------------------------------------------------ *)

let test_schedule_basics () =
  let s = sched_of_list [ 1; 2; 1; Schedule.idle; 2 ] in
  check_int "period" 5 (Schedule.period s);
  check_int "slot 0" 1 (Schedule.task_at s 0);
  check_int "wraps" 1 (Schedule.task_at s 5);
  Alcotest.(check (list int)) "occurrences of 1" [ 0; 2 ] (Schedule.occurrences s 1);
  check_int "count 2" 2 (Schedule.count s 2);
  Alcotest.(check (list int)) "ids" [ 1; 2 ] (Schedule.task_ids s);
  Alcotest.(check string) "utilization 4/5" "4/5" (Q.to_string (Schedule.utilization s))

let test_max_gap () =
  let s = sched_of_list [ 1; 2; 1; Schedule.idle; 2 ] in
  (* Task 1 occurs at 0 and 2 (period 5): gaps 2 and 3. *)
  Alcotest.(check (option int)) "gap of 1" (Some 3) (Schedule.max_gap s 1);
  (* Task 2 occurs at 1 and 4: gaps 3 and 2. *)
  Alcotest.(check (option int)) "gap of 2" (Some 3) (Schedule.max_gap s 2);
  Alcotest.(check (option int)) "absent task" None (Schedule.max_gap s 9);
  let single = sched_of_list [ 7; Schedule.idle; Schedule.idle ] in
  Alcotest.(check (option int)) "single occurrence" (Some 3) (Schedule.max_gap single 7)

let test_schedule_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Schedule.make: empty period")
    (fun () -> ignore (Schedule.make [||]));
  Alcotest.check_raises "bad value" (Invalid_argument "Schedule.make: bad slot value")
    (fun () -> ignore (Schedule.make [| -2 |]))

(* ------------------------------------------------------------------ *)
(* Verify                                                             *)
(* ------------------------------------------------------------------ *)

let test_verify_example1 () =
  (* Paper, Example 1: 1,2,1,2,... satisfies {(1,1,2), (2,1,3)}. *)
  let s = sched_of_list [ 1; 2 ] in
  check_bool "satisfies" true
    (Verify.satisfies s [ Task.unit ~id:1 ~b:2; Task.unit ~id:2 ~b:3 ])

let test_verify_example1b () =
  (* Paper, Example 1, second instance: 1,2,1,X,2,1,2,1,X,2,... wait --
     the paper's schedule has period 5: 1,2,1,X,2 repeated? Checking:
     {(1,2,5), (2,1,3)}: schedule "1 2 1 X 2" gives task 1 slots {0,2}:
     every 5-window has 2; task 2 slots {1,4}: gaps 3,2 <= 3. *)
  let s = sched_of_list [ 1; 2; 1; Schedule.idle; 2 ] in
  check_bool "satisfies multi-unit" true
    (Verify.satisfies s [ Task.make ~id:1 ~a:2 ~b:5; Task.unit ~id:2 ~b:3 ])

let test_verify_violation () =
  let s = sched_of_list [ 1; 1; 2 ] in
  (match Verify.check_pc s ~task:2 ~a:1 ~b:2 with
  | None -> Alcotest.fail "expected a violation"
  | Some v ->
      check_int "task" 2 v.Verify.task;
      check_int "found" 0 v.Verify.found);
  check_bool "system check reports it" true
    (List.length (Verify.check_system s [ Task.unit ~id:1 ~b:2; Task.unit ~id:2 ~b:2 ]) = 1)

(* The fewest occurrences of [task] in any [window] consecutive slots. *)
let min_in_window s ~task ~window =
  Array.fold_left min max_int (Verify.window_counts s ~task ~window)

let test_verify_window_longer_than_period () =
  let s = sched_of_list [ 1; 2 ] in
  (* Task 1 appears 3 times in any 6-window, 3 >= 3. *)
  check_bool "long window ok" true (Verify.check_pc s ~task:1 ~a:3 ~b:6 = None);
  check_bool "long window too demanding" true (Verify.check_pc s ~task:1 ~a:4 ~b:6 <> None);
  check_int "min in window 7" 3 (min_in_window s ~task:1 ~window:7)

let test_verify_idle_never_counts () =
  let s = sched_of_list [ Schedule.idle; 1 ] in
  check_bool "idle not a task" true (Verify.check_pc s ~task:1 ~a:1 ~b:2 = None);
  check_int "min idle window" 0 (min_in_window s ~task:Schedule.idle ~window:1 |> min 0)

(* Brute-force cross-check of the verifier: count every window by direct
   scanning of an unrolled schedule. *)
let prop_verify_matches_brute_force =
  QCheck2.Test.make ~name:"verifier agrees with brute-force window counting" ~count:200
    QCheck2.Gen.(
      triple (int_range 1 8) (int_range 1 12) (int_bound 1_000_000))
    (fun (period, window, seed) ->
      let rng = Random.State.make [| seed |] in
      let slots =
        Array.init period (fun _ ->
            let v = Random.State.int rng 4 in
            if v = 3 then Schedule.idle else v)
      in
      let sched = Schedule.make slots in
      let brute task =
        (* Unroll enough periods that every distinct window position with
           full length fits. *)
        let len = (2 * period) + window in
        let unrolled = Array.init len (fun t -> Schedule.task_at sched t) in
        let best = ref max_int in
        for start = 0 to period - 1 do
          let c = ref 0 in
          for t = start to start + window - 1 do
            if unrolled.(t) = task then incr c
          done;
          if !c < !best then best := !c
        done;
        !best
      in
      List.for_all
        (fun task -> min_in_window sched ~task ~window = brute task)
        [ 0; 1; 2 ])

let prop_map_tasks_preserves_counts =
  QCheck2.Test.make ~name:"map_tasks preserves total occurrences" ~count:100
    QCheck2.Gen.(pair (int_range 2 10) (int_bound 1_000_000))
    (fun (period, seed) ->
      let rng = Random.State.make [| seed |] in
      let slots =
        Array.init period (fun _ ->
            let v = Random.State.int rng 5 in
            if v = 4 then Schedule.idle else v)
      in
      let sched = Schedule.make slots in
      (* Merge ids 0-3 onto id 0; counts must add. *)
      let merged = Schedule.map_tasks sched (fun _ -> 0) in
      let before =
        List.fold_left (fun acc i -> acc + Schedule.count sched i) 0 [ 0; 1; 2; 3 ]
      in
      Schedule.count merged 0 = before)

(* ------------------------------------------------------------------ *)
(* Exact                                                              *)
(* ------------------------------------------------------------------ *)

let test_exact_example1 () =
  match Exact.decide [ Task.unit ~id:1 ~b:2; Task.unit ~id:2 ~b:3 ] with
  | Exact.Feasible s ->
      check_bool "verified" true
        (Verify.satisfies s [ Task.unit ~id:1 ~b:2; Task.unit ~id:2 ~b:3 ])
  | _ -> Alcotest.fail "example 1 must be feasible"

let test_exact_infeasible_third_example () =
  (* Paper, Example 1 (third instance): {(1,1,2),(2,1,3),(3,1,n)} is
     infeasible for every finite n; check a few n exhaustively. *)
  List.iter
    (fun n ->
      let sys = [ Task.unit ~id:1 ~b:2; Task.unit ~id:2 ~b:3; Task.unit ~id:3 ~b:n ] in
      check_bool (Printf.sprintf "n=%d infeasible" n) true (Exact.decide sys = Exact.Infeasible))
    [ 6; 10; 20; 35 ]

let test_exact_density_one_pair () =
  (* Two tasks with density exactly 1: {(1,1,2),(2,1,2)}. *)
  match Exact.decide [ Task.unit ~id:1 ~b:2; Task.unit ~id:2 ~b:2 ] with
  | Exact.Feasible _ -> ()
  | _ -> Alcotest.fail "alternating schedule exists"

let test_exact_two_task_theorem () =
  (* Holte et al.: every two-task (unit) system with density <= 1 is
     schedulable. Exhaust small windows. *)
  for b1 = 2 to 9 do
    for b2 = b1 to 12 do
      if Q.( <= ) (Q.add (Q.make 1 b1) (Q.make 1 b2)) Q.one then
        match Exact.decide [ Task.unit ~id:0 ~b:b1; Task.unit ~id:1 ~b:b2 ] with
        | Exact.Feasible _ -> ()
        | Exact.Infeasible ->
            Alcotest.failf "two-task (%d,%d) with density <= 1 reported infeasible" b1 b2
        | Exact.Too_large -> Alcotest.fail "too large unexpectedly"
    done
  done

let test_exact_density_above_one_infeasible () =
  check_bool "density > 1 infeasible" true
    (Exact.decide [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:2; Task.unit ~id:2 ~b:5 ]
    = Exact.Infeasible)

let test_exact_too_large () =
  (* The search proves {2, 3, 100} infeasible in a few hundred states; a
     smaller budget leaves it undecided. *)
  let sys = [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:3; Task.unit ~id:2 ~b:100 ] in
  check_bool "decided" true (Exact.decide sys = Exact.Infeasible);
  check_bool "cap respected" true (Exact.decide ~max_states:100 sys = Exact.Too_large)

let test_exact_relabels_interchangeable () =
  (* Tasks with equal (a, b) share one canonical state; the schedule the
     search returns still serves every one of them under its own id. *)
  List.iter
    (fun sys ->
      match Exact.decide sys with
      | Exact.Feasible s ->
          check_bool "verifies" true (Verify.check_system s sys = []);
          List.iter
            (fun (t : Task.t) -> check_bool "served" true (Schedule.count s t.Task.id > 0))
            sys
      | _ -> Alcotest.fail "feasible system expected")
    [
      List.init 4 (fun id -> Task.unit ~id ~b:4);
      List.init 3 (fun id -> Task.unit ~id ~b:5) @ [ Task.unit ~id:3 ~b:3 ];
      [ Task.make ~id:0 ~a:2 ~b:5; Task.make ~id:1 ~a:2 ~b:5; Task.unit ~id:2 ~b:7 ];
    ]

let test_exact_lin_lin_boundary () =
  (* Lin & Lin: three-task systems are schedulable up to density 5/6, and
     {(1,2),(2,3),(3,n)} sits at 5/6 + 1/n just above. A concrete feasible
     three-task system at exactly 5/6: {2, 4, 12}: 1/2+1/4+1/12 = 5/6. *)
  match Exact.decide [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:4; Task.unit ~id:2 ~b:12 ] with
  | Exact.Feasible _ -> ()
  | _ -> Alcotest.fail "harmonic 2/4/12 must be feasible"

(* ------------------------------------------------------------------ *)
(* Exact on multi-unit systems, against the oracles                   *)
(* ------------------------------------------------------------------ *)

module Oracle = Exact_oracle

(* Verdicts only, comparable across the search and the oracles. *)
let verdict = function
  | Exact.Feasible _ -> Some true
  | Exact.Infeasible -> Some false
  | Exact.Too_large -> None

let oracle_verdict = function
  | Oracle.Feasible _ -> Some true
  | Oracle.Infeasible -> Some false
  | Oracle.Too_large -> None

let test_exact_multi_paper_example () =
  (* {(1,2,5),(2,1,3)} from the paper's Example 1. *)
  let sys = [ Task.make ~id:1 ~a:2 ~b:5; Task.unit ~id:2 ~b:3 ] in
  match Exact.decide sys with
  | Exact.Feasible s -> check_bool "verifies" true (Verify.satisfies s sys)
  | _ -> Alcotest.fail "paper example must be feasible"

let test_exact_multi_density_bound () =
  check_bool "density > 1 infeasible" true
    (Exact.decide [ Task.make ~id:0 ~a:3 ~b:4; Task.make ~id:1 ~a:2 ~b:4 ]
    = Exact.Infeasible)

let test_exact_multi_agrees_with_unit_exact () =
  (* On unit systems the search and both oracles agree. *)
  for b1 = 2 to 5 do
    for b2 = b1 to 6 do
      for b3 = b2 to 6 do
        let sys =
          [ Task.unit ~id:0 ~b:b1; Task.unit ~id:1 ~b:b2; Task.unit ~id:2 ~b:b3 ]
        in
        let answer = verdict (Exact.decide sys) in
        check_bool
          (Printf.sprintf "agree on {%d,%d,%d}" b1 b2 b3)
          true
          (answer <> None
          && answer = oracle_verdict (Oracle.Unit.decide sys)
          && answer = oracle_verdict (Oracle.Multi.decide sys))
      done
    done
  done

let test_exact_multi_saturated () =
  (* (b, b) tasks demand every slot; two of them cannot coexist. *)
  (match Exact.decide [ Task.make ~id:0 ~a:3 ~b:3 ] with
  | Exact.Feasible s -> check_int "period-1-ish full schedule" 0 (Schedule.count s Schedule.idle)
  | _ -> Alcotest.fail "a single saturated task is feasible");
  check_bool "two saturated tasks" true
    (Exact.decide [ Task.make ~id:0 ~a:2 ~b:2; Task.make ~id:1 ~a:2 ~b:2 ]
    = Exact.Infeasible)

let test_exact_multi_too_large () =
  (* Density 163/168 and infeasible: the proof takes a few hundred
     states. *)
  let sys = [ Task.make ~id:0 ~a:3 ~b:8; Task.unit ~id:1 ~b:6; Task.make ~id:2 ~a:3 ~b:7 ] in
  check_bool "decided as the oracle does" true
    (Exact.decide sys = Exact.Infeasible && Oracle.Multi.decide sys = Oracle.Infeasible);
  check_bool "cap respected" true (Exact.decide ~max_states:100 sys = Exact.Too_large)

let prop_exact_multi_never_contradicts_heuristics =
  QCheck2.Test.make ~name:"heuristic schedules imply multi-unit exact feasibility"
    ~count:60
    QCheck2.Gen.(pair (int_range 2 3) (int_bound 1_000_000))
    (fun (n, seed) ->
      let sys = Gen.multi_unit_system ~seed ~n ~max_a:2 ~max_b:6 ~target:0.95 in
      match sys with
      | [] -> true
      | _ -> (
          match (Scheduler.plan sys, Exact.decide sys) with
          | Some _, Exact.Infeasible -> false
          | _ -> true))

(* The search against the exhaustive deciders it replaced: unit systems
   with n <= 5 and windows <= 12 against [Oracle.Unit], multi-unit ones
   with n <= 3, windows <= 7 and a <= 3 against [Oracle.Multi]. Equal
   verdicts, and every schedule passes the window-counting check. *)
let prop_exact_matches_oracles =
  QCheck2.Test.make ~name:"search verdicts equal the exhaustive oracles" ~count:400
    QCheck2.Gen.(
      bool >>= fun multi ->
      let task =
        if multi then
          int_range 1 7 >>= fun b -> map (fun a -> (a, b)) (int_range 1 (min 3 b))
        else map (fun b -> (1, b)) (int_range 1 12)
      in
      map (fun l -> (multi, l)) (list_size (int_range 1 (if multi then 3 else 5)) task))
    (fun (multi, pairs) ->
      let sys = List.mapi (fun id (a, b) -> Task.make ~id ~a ~b) pairs in
      let result = Exact.decide sys in
      let oracle = if multi then Oracle.Multi.decide sys else Oracle.Unit.decide sys in
      verdict result = oracle_verdict oracle
      &&
      match result with
      | Exact.Feasible s -> Verify.check_system s sys = []
      | Exact.Infeasible | Exact.Too_large -> true)

(* ------------------------------------------------------------------ *)
(* Harmonic                                                           *)
(* ------------------------------------------------------------------ *)

(* The cyclic schedule realizing packed assignments, with period the
   largest one (every chain period divides it); keys become task ids. *)
let schedule_of (assignments : Harmonic.assignment list) =
  let hyper =
    List.fold_left (fun acc (a : Harmonic.assignment) -> max acc a.period) 1 assignments
  in
  let slots = Array.make hyper Schedule.idle in
  List.iter
    (fun (a : Harmonic.assignment) ->
      let t = ref a.offset in
      while !t < hyper do
        assert (slots.(!t) = Schedule.idle);
        slots.(!t) <- a.key;
        t := !t + a.period
      done)
    assignments;
  Schedule.make slots

let test_harmonic_pack_simple () =
  match Harmonic.pack ~x:1 [ (0, 2); (1, 4); (2, 4) ] with
  | None -> Alcotest.fail "density 1 chain must pack"
  | Some assignments ->
      let sched = schedule_of assignments in
      check_bool "verifies" true
        (Verify.satisfies sched
           [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:4; Task.unit ~id:2 ~b:4 ])

let test_harmonic_pack_overfull () =
  check_bool "density > 1 rejected" true
    (Harmonic.pack ~x:1 [ (0, 2); (1, 2); (2, 2) ] = None)

let test_harmonic_pack_base3 () =
  (* Chain base 3: periods 3, 6, 12; density 1/3+1/6+1/12 + 1/3 = 11/12. *)
  match Harmonic.pack ~x:3 [ (0, 3); (1, 6); (2, 12); (3, 3) ] with
  | None -> Alcotest.fail "base-3 chain must pack"
  | Some assignments ->
      let sched = schedule_of assignments in
      check_int "hyperperiod" 12 (Schedule.period sched);
      check_bool "verifies" true
        (Verify.satisfies sched
           [
             Task.unit ~id:0 ~b:3;
             Task.unit ~id:1 ~b:6;
             Task.unit ~id:2 ~b:12;
             Task.unit ~id:3 ~b:3;
           ])

let test_harmonic_rejects_off_chain () =
  Alcotest.check_raises "period 6 not in base-4 chain"
    (Invalid_argument "Harmonic.pack: period 6 is not of the form 4*2^k")
    (fun () -> ignore (Harmonic.pack ~x:4 [ (0, 6) ]))

let test_harmonic_repeated_keys () =
  (* Multi-unit decomposition hands the packer repeated keys. *)
  match Harmonic.pack ~x:1 [ (5, 4); (5, 4); (5, 4); (5, 4) ] with
  | None -> Alcotest.fail "four quarters fit"
  | Some assignments ->
      let sched = schedule_of assignments in
      check_bool "pc(5,4,4) holds" true (Verify.check_pc sched ~task:5 ~a:4 ~b:4 = None)

let prop_harmonic_density_le_one_packs =
  QCheck2.Test.make ~name:"chain instances with density <= 1 always pack" ~count:300
    QCheck2.Gen.(triple (int_range 1 6) (int_range 1 8) (int_bound 1_000_000))
    (fun (x, n, seed) ->
      let rng = Random.State.make [| seed |] in
      (* Draw chain periods, then drop tasks until density <= 1. *)
      let tasks =
        List.init n (fun key -> (key, x * (1 lsl Random.State.int rng 4)))
      in
      let rec trim tasks =
        let d = Q.sum (List.map (fun (_, p) -> Q.make 1 p) tasks) in
        if Q.( <= ) d Q.one then tasks
        else match tasks with [] -> [] | _ :: rest -> trim rest
      in
      let tasks = trim tasks in
      match tasks with
      | [] -> true
      | _ -> (
          match Harmonic.pack ~x tasks with
          | None -> false
          | Some assignments ->
              let sched = schedule_of assignments in
              List.for_all
                (fun (key, p) ->
                  min_in_window sched ~task:key ~window:p >= 1)
                (List.sort_uniq compare tasks)))

(* The column-scan packer the buddy allocator replaced: per column, a list
   of free residue classes; each unit task takes the free class of
   largest modulus <= its own over all columns, first found on ties. *)
type oracle_class = { residue : int; modulus : int }

let oracle_pack ~x tasks =
  let with_exp =
    List.map
      (fun (key, period) ->
        let q = period / x in
        if period < x || period mod x <> 0 || q land (q - 1) <> 0 then
          invalid_arg "oracle_pack: off-chain period";
        (key, period, Pindisk_util.Intmath.floor_log2 q))
      tasks
  in
  let density = Q.sum (List.map (fun (_, p, _) -> Q.make 1 p) with_exp) in
  if Q.( > ) density Q.one then None
  else begin
    let sorted = List.sort (fun (_, p, _) (_, q, _) -> compare p q) with_exp in
    let free = Array.make x [ { residue = 0; modulus = 1 } ] in
    let place (key, period, k) =
      let wanted = 1 lsl k in
      let best = ref None in
      Array.iteri
        (fun col classes ->
          List.iter
            (fun c ->
              if c.modulus <= wanted then
                match !best with
                | Some (_, c') when c'.modulus >= c.modulus -> ()
                | _ -> best := Some (col, c))
            classes)
        free;
      match !best with
      | None -> None
      | Some (col, c) ->
          let remaining = List.filter (fun c' -> c' <> c) free.(col) in
          let rec split siblings m =
            if m >= wanted then siblings
            else split ({ residue = c.residue + m; modulus = 2 * m } :: siblings) (2 * m)
          in
          free.(col) <- split remaining c.modulus;
          Some { Harmonic.key; offset = col + (x * c.residue); period }
    in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | t :: rest -> ( match place t with None -> None | Some a -> go (a :: acc) rest)
    in
    go [] sorted
  end

(* Bases 1-12, periods x·2^0 to x·2^5, keys drawn from 0-7 (so they
   repeat), and up to 4x + 4 units: densities from 0 to well above 1. *)
let prop_buddy_matches_column_scan =
  QCheck2.Test.make ~name:"buddy pack equals the column-scan packer" ~count:500
    QCheck2.Gen.(pair (int_range 1 12) (int_bound 1_000_000))
    (fun (x, seed) ->
      let st = Random.State.make [| seed |] in
      let tasks =
        List.init
          (Random.State.int st ((4 * x) + 5))
          (fun _ -> (Random.State.int st 8, x * (1 lsl Random.State.int st 6)))
      in
      let packed = Harmonic.pack ~x tasks in
      let density = Q.sum (List.map (fun (_, p) -> Q.make 1 p) tasks) in
      packed = oracle_pack ~x tasks && (Q.( <= ) density Q.one || packed = None))

(* ------------------------------------------------------------------ *)
(* Specialize                                                         *)
(* ------------------------------------------------------------------ *)

let test_to_chain () =
  Alcotest.(check (option int)) "b=7 x=1" (Some 4) (Specialize.to_chain ~x:1 7);
  Alcotest.(check (option int)) "b=7 x=3" (Some 6) (Specialize.to_chain ~x:3 7);
  Alcotest.(check (option int)) "b=3 x=3" (Some 3) (Specialize.to_chain ~x:3 3);
  Alcotest.(check (option int)) "b=2 x=3" None (Specialize.to_chain ~x:3 2);
  Alcotest.(check (option int)) "b=24 x=3" (Some 24) (Specialize.to_chain ~x:3 24)

let test_sa_succeeds_example () =
  let sys = [ Task.unit ~id:1 ~b:4; Task.unit ~id:2 ~b:5; Task.unit ~id:3 ~b:9 ] in
  (* density 1/4+1/5+1/9 = 0.561... > 1/2, but specialization to {4,4,8}
     gives 1/4+1/4+1/8 = 5/8 <= 1: Sa succeeds beyond its guarantee. *)
  match materialize (Specialize.sa_plan sys) with
  | Some sched -> check_bool "verifies" true (Verify.satisfies sched sys)
  | None -> Alcotest.fail "Sa should schedule this"

let test_sx_beats_sa () =
  (* Windows {3, 6, 7}: Sa specializes to {2, 4, 4} with density
     1/2+1/4+1/4 = 1 (packs); Sx can instead use base 3: {3, 6, 6},
     density 1/3+1/6+1/6 = 2/3. Both must verify. *)
  let sys = [ Task.unit ~id:0 ~b:3; Task.unit ~id:1 ~b:6; Task.unit ~id:2 ~b:7 ] in
  (match Specialize.sx_base sys with
  | Some x -> check_int "picks base 3" 3 x
  | None -> Alcotest.fail "sx must find a base");
  match materialize (Specialize.sx_plan sys) with
  | Some sched -> check_bool "verifies" true (Verify.satisfies sched sys)
  | None -> Alcotest.fail "Sx should schedule this"

let test_sx_multi_unit () =
  (* Paper Example 1 second instance {(1,2,5),(2,1,3)}: density 11/15. *)
  let sys = [ Task.make ~id:1 ~a:2 ~b:5; Task.unit ~id:2 ~b:3 ] in
  match materialize (Specialize.sx_plan sys) with
  | Some sched -> check_bool "verifies" true (Verify.satisfies sched sys)
  | None -> Alcotest.fail "Sx should schedule the multi-unit example"

let test_specialized_density () =
  let sys = [ Task.unit ~id:0 ~b:3; Task.unit ~id:1 ~b:6; Task.unit ~id:2 ~b:7 ] in
  (match Specialize.specialized_density ~x:3 sys with
  | Some d -> Alcotest.(check string) "2/3" "2/3" (Q.to_string d)
  | None -> Alcotest.fail "x=3 applies");
  check_bool "x too large" true (Specialize.specialized_density ~x:4 sys = None)

let prop_sa_guarantee =
  QCheck2.Test.make ~name:"Sa schedules every unit system with density <= 1/2" ~count:200
    QCheck2.Gen.(pair (int_range 1 8) (int_bound 1_000_000))
    (fun (n, seed) ->
      let sys = Gen.unit_system_with_density ~seed ~n ~max_b:64 ~target:0.5 in
      match sys with
      | [] -> true
      | _ -> (
          match materialize (Specialize.sa_plan sys) with
          | Some sched -> Verify.satisfies sched sys
          | None -> false))

let prop_sx_dominates_sa =
  QCheck2.Test.make ~name:"Sx succeeds whenever Sa does" ~count:200
    QCheck2.Gen.(pair (int_range 1 8) (int_bound 1_000_000))
    (fun (n, seed) ->
      let sys = Gen.unit_system_with_density ~seed ~n ~max_b:48 ~target:0.8 in
      match sys with
      | [] -> true
      | _ -> (
          match (Specialize.sa_plan sys, materialize (Specialize.sx_plan sys)) with
          | Some _, None -> false
          | _, Some sched -> Verify.satisfies sched sys
          | None, None -> true))

(* The per-task base sum and base choice the per-exponent sums replaced. *)
let oracle_specialized_density ~x sys =
  List.fold_left
    (fun acc (t : Task.t) ->
      match (acc, Specialize.to_chain ~x t.Task.b) with
      | Some d, Some b' -> Some (Q.add d (Q.make t.Task.a b'))
      | _ -> None)
    (Some Q.zero) sys

let oracle_sx_base sys =
  let b_min = List.fold_left (fun acc (t : Task.t) -> min acc t.Task.b) max_int sys in
  let candidates = Hashtbl.create 64 in
  List.iter
    (fun (t : Task.t) ->
      let v = ref t.Task.b in
      while !v >= 1 do
        if !v <= b_min then Hashtbl.replace candidates !v ();
        v := !v / 2
      done)
    sys;
  Hashtbl.replace candidates 1 ();
  Hashtbl.fold (fun k () acc -> k :: acc) candidates []
  |> List.sort (fun a b -> compare b a)
  |> List.fold_left
       (fun best x ->
         match (best, oracle_specialized_density ~x sys) with
         | _, Some d when Q.( > ) d Q.one -> best
         | None, Some d -> Some (x, d)
         | Some (_, bd), Some d when Q.( < ) d bd -> Some (x, d)
         | best, _ -> best)
       None
  |> Option.map fst

let prop_specialize_matches_per_task_sum =
  QCheck2.Test.make ~name:"per-exponent sums equal the per-task sum" ~count:300
    QCheck2.Gen.(triple (int_range 1 10) (int_range 1 40) (int_bound 1_000_000))
    (fun (n, max_b, seed) ->
      let st = Random.State.make [| seed |] in
      let sys =
        List.init n (fun id ->
            let a = 1 + Random.State.int st 3 in
            Task.make ~id ~a ~b:(a + Random.State.int st max_b))
      in
      Specialize.sx_base sys = oracle_sx_base sys
      && List.for_all
           (fun x ->
             Specialize.specialized_density ~x sys = oracle_specialized_density ~x sys)
           (List.init (max_b + 3) (fun x -> x + 1)))

(* ------------------------------------------------------------------ *)
(* Rotation                                                           *)
(* ------------------------------------------------------------------ *)

module Rotation = P.Rotation

let test_rotation_two_distinct () =
  (* The motivating case from the interface: specialization fails (7
     rounds to 4) but rotation with g = 2 packs three 7-windows into one
     column. *)
  let sys =
    [
      Task.unit ~id:0 ~b:2;
      Task.unit ~id:1 ~b:7;
      Task.unit ~id:2 ~b:7;
      Task.unit ~id:3 ~b:7;
    ]
  in
  check_bool "Sx fails here" true (Specialize.sx_plan sys = None);
  match materialize (Rotation.plan sys) with
  | Some sched -> check_bool "rotation verifies" true (Verify.satisfies sched sys)
  | None -> Alcotest.fail "rotation must place the two-distinct system"

let test_rotation_assign () =
  (match Rotation.assign ~g:2 [ (0, 2); (1, 7); (2, 7); (3, 7) ] with
  | Some placements ->
      check_int "all placed" 4 (List.length placements);
      (* Task 0 (window 2) must sit alone: 2 * 2 > 2. *)
      let _, c0, k0 = List.find (fun (key, _, _) -> key = 0) placements in
      check_int "tight task alone" 1 k0;
      ignore c0
  | None -> Alcotest.fail "assignment exists");
  check_bool "overfull rejected" true (Rotation.assign ~g:1 [ (0, 1); (1, 1) ] = None)

let test_rotation_exact_period_semantics () =
  (* Each task in a size-k class is served exactly every g*k slots. *)
  let sys = [ Task.unit ~id:0 ~b:4; Task.unit ~id:1 ~b:4 ] in
  match materialize (Rotation.plan_with_base ~g:1 sys) with
  | Some sched ->
      Alcotest.(check (option int)) "gap is exactly 2" (Some 2) (Schedule.max_gap sched 0)
  | None -> Alcotest.fail "two windows of 4 at g=1"

let test_rotation_multi_unit () =
  let sys = [ Task.make ~id:0 ~a:2 ~b:6; Task.unit ~id:1 ~b:9 ] in
  match materialize (Rotation.plan sys) with
  | Some sched -> check_bool "verifies" true (Verify.satisfies sched sys)
  | None -> Alcotest.fail "rotation handles multi-unit via decomposition"

let prop_rotation_schedules_verify =
  QCheck2.Test.make ~name:"rotation schedules always verify" ~count:150
    QCheck2.Gen.(pair (int_range 1 7) (int_bound 1_000_000))
    (fun (n, seed) ->
      let sys = Gen.unit_system_with_density ~seed ~n ~max_b:30 ~target:0.9 in
      match sys with
      | [] -> true
      | _ -> (
          match materialize (Rotation.plan sys) with
          | Some sched -> Verify.satisfies sched sys
          | None -> true))

let prop_rotation_multiple_structure =
  QCheck2.Test.make ~name:"rotation handles exact-multiple windows at density 1" ~count:80
    QCheck2.Gen.(pair (int_range 2 6) (int_bound 1_000_000))
    (fun (g, seed) ->
      (* g tasks: one with window g*1... fill g columns each with one task
         of window exactly g: density 1, rotation must succeed. *)
      ignore seed;
      let sys = List.init g (fun id -> Task.unit ~id ~b:g) in
      match materialize (Rotation.plan sys) with
      | Some sched -> Verify.satisfies sched sys
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Two_chain                                                          *)
(* ------------------------------------------------------------------ *)

let test_virtual_window () =
  (* Split 1/2: every other slot; a window of 5 real slots always holds at
     least 2 dedicated slots. *)
  check_int "c=1 d=2 b=5" 2 (Two_chain.virtual_window { Two_chain.c = 1; d = 2 } 5);
  check_int "c=1 d=2 b=1" 0 (Two_chain.virtual_window { Two_chain.c = 1; d = 2 } 1);
  check_int "c=2 d=3 b=6" 4 (Two_chain.virtual_window { Two_chain.c = 2; d = 3 } 6);
  check_int "full rate" 7 (Two_chain.virtual_window { Two_chain.c = 1; d = 1 } 7)

let test_two_chain_bimodal () =
  (* Two scales: {3, 3} and {64, 80, 96}; single-chain handles this, but
     the two-chain path must also produce a valid schedule on bimodal
     systems when asked directly. *)
  let sys =
    [
      Task.unit ~id:0 ~b:3;
      Task.unit ~id:1 ~b:5;
      Task.unit ~id:2 ~b:64;
      Task.unit ~id:3 ~b:80;
      Task.unit ~id:4 ~b:96;
    ]
  in
  match materialize (Two_chain.plan sys) with
  | Some sched -> check_bool "verifies" true (Verify.satisfies sched sys)
  | None -> Alcotest.fail "two-chain should handle the bimodal system"

(* ------------------------------------------------------------------ *)
(* Scheduler                                                          *)
(* ------------------------------------------------------------------ *)

let test_scheduler_auto_verifies () =
  let sys = [ Task.make ~id:1 ~a:2 ~b:5; Task.unit ~id:2 ~b:3 ] in
  match materialize (Scheduler.plan sys) with
  | Some sched -> check_bool "verifies" true (Verify.satisfies sched sys)
  | None -> Alcotest.fail "auto should schedule"

let test_scheduler_exact_fallback () =
  (* Density 5/6 pair {2,3}: specialization fails ({2,2} density 1? 1/2+1/2=1
     packs fine actually). Use {(1,1,2),(2,1,3)} anyway and check success. *)
  let sys = [ Task.unit ~id:1 ~b:2; Task.unit ~id:2 ~b:3 ] in
  check_bool "schedulable" true (Scheduler.plan sys <> None)

let test_scheduler_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Scheduler.plan: empty system")
    (fun () -> ignore (Scheduler.plan []));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Scheduler.plan: duplicate task ids in system") (fun () ->
      ignore (Scheduler.plan [ Task.unit ~id:1 ~b:2; Task.unit ~id:1 ~b:3 ]))

let test_guaranteed_density () =
  check_bool "Sa guarantee 1/2" true
    (Scheduler.guaranteed_density Scheduler.Sa = Some (Q.make 1 2));
  check_bool "exact: none" true (Scheduler.guaranteed_density Scheduler.Exact_small = None);
  (* Auto's guarantee is where classify stops saying Guaranteed. *)
  check_bool "Auto guarantee 1/2" true
    (Scheduler.guaranteed_density Scheduler.Auto = Some (Q.make 1 2));
  check_bool "1/2 guaranteed" true
    (match Density.classify [ Task.unit ~id:0 ~b:4; Task.unit ~id:1 ~b:4 ] with
    | Density.Guaranteed _ -> true
    | _ -> false);
  check_bool "just above 1/2 only exists" true
    (match Density.classify [ Task.unit ~id:0 ~b:4; Task.unit ~id:1 ~b:3 ] with
    | Density.Exists _ -> true
    | _ -> false)

(* Unit systems of density at most 5/6 that Sx, Sr and Sxy leave
   unplanned, with window products past 2·10⁶: the search plans them. *)
let test_scheduler_plans_kawamura_band () =
  List.iter
    (fun windows ->
      let sys = List.mapi (fun id b -> Task.unit ~id ~b) windows in
      check_bool "a schedule exists" true
        (match Density.classify sys with Density.Exists _ -> true | _ -> false);
      match Scheduler.plan sys with
      | Some p -> check_bool "verifies" true (Verify.satisfies (Plan.to_schedule p) sys)
      | None -> Alcotest.failf "no plan for %a" Task.pp_system sys)
    [
      [ 4; 6; 7; 10; 15; 21; 35; 35 ];
      [ 5; 7; 8; 9; 11; 11; 22 ];
      [ 20; 6; 4; 15; 8; 7; 38 ];
      [ 22; 7; 8; 10; 28; 8; 5; 24 ];
      [ 4; 11; 17; 3; 26; 38; 31 ];
    ]

(* Every algorithm's plans, Auto's among them, on unit and multi-unit
   systems, judged by the window-counting oracle on the materialized
   array rather than by the closed-form check the constructions run. *)
let prop_auto_schedules_are_valid =
  QCheck2.Test.make ~name:"every schedule Auto returns verifies" ~count:100
    QCheck2.Gen.(triple bool (int_range 1 6) (int_bound 1_000_000))
    (fun (multi, n, seed) ->
      let sys =
        if multi then Gen.multi_unit_system ~seed ~n ~max_a:3 ~max_b:32 ~target:0.65
        else Gen.unit_system_with_density ~seed ~n ~max_b:10 ~target:0.8
      in
      sys = []
      || List.for_all
           (fun algorithm ->
             match Scheduler.plan ~algorithm sys with
             | Some p -> Verify.check_system (Plan.to_schedule p) sys = []
             | None -> true)
           Scheduler.[ Sa; Sx; Sr; Sxy; Exact_small; Auto ])

let prop_exact_agrees_with_heuristics =
  QCheck2.Test.make ~name:"heuristic success implies exact feasibility" ~count:60
    QCheck2.Gen.(pair (int_range 2 4) (int_bound 1_000_000))
    (fun (n, seed) ->
      let sys = Gen.unit_system_with_density ~seed ~n ~max_b:12 ~target:0.9 in
      match sys with
      | [] -> true
      | _ -> (
          match (Specialize.sx_plan sys, Exact.decide sys) with
          | Some _, Exact.Infeasible -> false (* heuristic found what exact denies *)
          | _ -> true))

(* ------------------------------------------------------------------ *)
(* Analysis                                                           *)
(* ------------------------------------------------------------------ *)

module Analysis = P.Analysis

let test_analysis_schedulable () =
  let r = Analysis.analyze [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:3 ] in
  (match r.Analysis.verdict with
  | Analysis.Schedulable _ -> ()
  | _ -> Alcotest.fail "must schedule");
  check_bool "not harmonic" false r.Analysis.harmonic;
  check_int "distinct windows" 2 r.Analysis.distinct_windows;
  check_bool "unit" true r.Analysis.unit_system;
  check_bool "no certificate" true (r.Analysis.certificate = None)

let test_analysis_density_certificate () =
  let r = Analysis.analyze [ Task.make ~id:0 ~a:3 ~b:4; Task.unit ~id:1 ~b:2 ] in
  match r.Analysis.verdict with
  | Analysis.Infeasible (Analysis.Density_above_one d) ->
      Alcotest.(check string) "5/4" "5/4" (Q.to_string d)
  | _ -> Alcotest.fail "density certificate expected"

let test_analysis_exhausted_certificate () =
  (* {(1,2),(1,3),(1,12)}: density 11/12 < 1, heuristics fail, exact
     proves infeasible. *)
  let r =
    Analysis.analyze
      [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:3; Task.unit ~id:2 ~b:12 ]
  in
  match r.Analysis.verdict with
  | Analysis.Infeasible Analysis.Exhausted -> ()
  | _ -> Alcotest.fail "exhaustion certificate expected"

let test_analysis_harmonic () =
  check_bool "harmonic" true
    (Analysis.is_harmonic [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:4; Task.unit ~id:2 ~b:8 ]);
  check_bool "not harmonic" false
    (Analysis.is_harmonic [ Task.unit ~id:0 ~b:4; Task.unit ~id:1 ~b:6 ]);
  let r =
    Analysis.analyze [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:4; Task.unit ~id:2 ~b:4 ]
  in
  check_bool "harmonic flagged" true r.Analysis.harmonic;
  match r.Analysis.verdict with
  | Analysis.Schedulable _ -> () (* harmonic density-1: schedulable *)
  | _ -> Alcotest.fail "harmonic density 1 must schedule"

let prop_analysis_verdicts_sound =
  QCheck2.Test.make ~name:"analysis verdicts are sound" ~count:80
    QCheck2.Gen.(pair (int_range 2 4) (int_bound 1_000_000))
    (fun (n, seed) ->
      let sys = Gen.unit_system ~seed ~n ~max_b:8 in
      let sys = List.mapi (fun i t -> Task.unit ~id:i ~b:t.Task.b) sys in
      let r = Analysis.analyze sys in
      match r.Analysis.verdict with
      | Analysis.Schedulable sched -> Verify.satisfies sched sys
      | Analysis.Infeasible _ ->
          (* Cross-check with the exhaustive oracle. *)
          oracle_verdict (Oracle.Unit.decide sys) <> Some true
      | Analysis.Unknown -> true)

(* ------------------------------------------------------------------ *)
(* Gen                                                                *)
(* ------------------------------------------------------------------ *)

let test_gen_validation () =
  List.iter
    (fun target ->
      let name = Printf.sprintf "target %g" target in
      Alcotest.check_raises name
        (Invalid_argument "Gen.unit_system_with_density: target in (0, 1]")
        (fun () ->
          ignore (Gen.unit_system_with_density ~seed:1 ~n:4 ~max_b:8 ~target));
      Alcotest.check_raises name
        (Invalid_argument "Gen.multi_unit_system: target in (0, 1]") (fun () ->
          ignore (Gen.multi_unit_system ~seed:1 ~n:4 ~max_a:2 ~max_b:8 ~target)))
    [ 0.0; 1.5; Float.nan ]

let test_gen_density_bounded () =
  let sys = Gen.unit_system_with_density ~seed:7 ~n:10 ~max_b:50 ~target:0.7 in
  check_bool "density below target" true
    (Q.to_float (Task.system_density sys) <= 0.7 +. 1e-9);
  check_bool "deterministic" true
    (sys = Gen.unit_system_with_density ~seed:7 ~n:10 ~max_b:50 ~target:0.7)

let test_gen_multi_unit () =
  let sys = Gen.multi_unit_system ~seed:3 ~n:8 ~max_a:4 ~max_b:40 ~target:0.8 in
  List.iter
    (fun t -> check_bool "a <= b" true (t.Task.a <= t.Task.b))
    sys;
  check_bool "density bounded" true (Q.to_float (Task.system_density sys) <= 0.8 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Plan dispatcher                                                     *)
(* ------------------------------------------------------------------ *)

(* The tentpole equivalence: the online dispatcher replayed for two full
   periods is slot-for-slot the eager schedule, on generated feasible
   systems — unit and multi-unit, across every algorithm Auto reaches. *)
let prop_online_matches_eager =
  QCheck2.Test.make ~name:"online dispatch replays the eager schedule"
    ~count:120
    QCheck2.Gen.(triple bool (int_range 1 8) (int_bound 1_000_000))
    (fun (multi, n, seed) ->
      let sys =
        if multi then Gen.multi_unit_system ~seed ~n ~max_a:2 ~max_b:12 ~target:0.8
        else Gen.unit_system_with_density ~seed ~n ~max_b:32 ~target:0.8
      in
      match Scheduler.plan sys with
      | None -> true
      | Some plan ->
          let sched = Plan.to_schedule plan and d = Plan.create plan in
          let ok = ref true in
          for t = 0 to (2 * Plan.period plan) - 1 do
            if Plan.next d <> Schedule.task_at sched t then ok := false
          done;
          !ok)

let prop_online_take_reset =
  QCheck2.Test.make ~name:"Online.take/reset are consistent with to_schedule"
    ~count:60
    QCheck2.Gen.(pair (int_range 1 6) (int_bound 1_000_000))
    (fun (n, seed) ->
      let sys = Gen.unit_system_with_density ~seed ~n ~max_b:16 ~target:0.6 in
      match Scheduler.plan sys with
      | None -> true
      | Some plan ->
          let p = Plan.period plan and d = Plan.create plan in
          let take () = Array.init p (fun _ -> Plan.next d) in
          let first = take () in
          Plan.reset d;
          let again = take () in
          first = again
          && first = Array.init p (Schedule.task_at (Plan.to_schedule plan))
          && Plan.slot d = p)

(* Streaming verification agrees with the seed verifier — including on
   schedules that violate their system (windows drawn independently of
   the slots, so plenty of violations are generated). *)
let prop_streaming_verify_agrees =
  QCheck2.Test.make ~name:"streaming satisfies = check_system on random schedules"
    ~count:300
    QCheck2.Gen.(
      triple (int_range 1 12)
        (list_size (int_range 1 24) (int_range (-1) 3))
        (int_bound 1_000_000))
    (fun (max_b, slots, seed) ->
      let slots =
        Array.of_list
          (List.map (fun v -> if v < 0 then Schedule.idle else v) slots)
      in
      let sched = Schedule.make slots in
      let st = Random.State.make [| seed |] in
      let sys =
        List.init 3 (fun id ->
            Task.unit ~id ~b:(1 + Random.State.int st max_b))
      in
      Verify.satisfies sched sys = (Verify.check_system sched sys = []))

let test_satisfies_plan () =
  let sys = [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:4; Task.unit ~id:2 ~b:4 ] in
  match Scheduler.plan sys with
  | None -> Alcotest.fail "density 1 dyadic system schedules"
  | Some plan ->
      check_bool "plan verifies online" true (Verify.satisfies_plan plan sys);
      check_bool "wrong system rejected" false
        (Verify.satisfies_plan plan [ Task.unit ~id:5 ~b:2 ])

(* The streaming verifier the closed form replaced: a dispatcher walks
   one period, collecting each task's occurrence slots in order, and
   pc(a, b) is the gap condition O_{m+a} - O_m <= b on them. *)
let oracle_satisfies_plan plan sys =
  let period = Plan.period plan and d = Plan.create plan in
  let index = Hashtbl.create 64 in
  List.iter
    (fun (t : Task.t) ->
      if not (Hashtbl.mem index t.Task.id) then
        Hashtbl.replace index t.Task.id (Hashtbl.length index))
    sys;
  let occs = Array.make (Hashtbl.length index) [] in
  for t = 0 to period - 1 do
    match Hashtbl.find_opt index (Plan.next d) with
    | Some i -> occs.(i) <- t :: occs.(i)
    | None -> ()
  done;
  List.for_all
    (fun (t : Task.t) ->
      let occ = Array.of_list (List.rev occs.(Hashtbl.find index t.Task.id)) in
      let c = Array.length occ in
      c > 0
      && List.for_all
           (fun j ->
             let m = j + t.Task.a in
             occ.(m mod c) + (period * (m / c)) - occ.(j) <= t.Task.b)
           (List.init c Fun.id))
    sys

(* Plans of every constructor, from every scheduler, judged against
   their own system and against the same windows tightened by one. *)
let prop_closed_form_verify_matches_walk =
  QCheck2.Test.make ~name:"closed-form verification equals the dispatcher walk"
    ~count:300
    QCheck2.Gen.(triple bool (int_range 1 7) (int_bound 1_000_000))
    (fun (multi, n, seed) ->
      let sys =
        if multi then Gen.multi_unit_system ~seed ~n ~max_a:2 ~max_b:16 ~target:0.8
        else Gen.unit_system_with_density ~seed ~n ~max_b:12 ~target:0.8
      in
      let tightened =
        List.map
          (fun (t : Task.t) ->
            Task.make ~id:t.Task.id ~a:t.Task.a ~b:(max t.Task.a (t.Task.b - 1)))
          sys
      in
      let plans =
        List.filter_map
          (fun algorithm ->
            try Scheduler.plan ~algorithm sys with Invalid_argument _ -> None)
          Scheduler.[ Sa; Sx; Sr; Sxy; Exact_small ]
      in
      List.for_all
        (fun plan ->
          List.for_all
            (fun s -> Verify.satisfies_plan plan s = oracle_satisfies_plan plan s)
            [ sys; tightened ])
        plans)

let test_verify_rejects_collisions () =
  let prog key offset period = { Plan.key; offset; period } in
  let sys = [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:4 ] in
  let clean = Plan.progressions [ prog 0 0 2; prog 1 1 4 ] in
  let collide = Plan.progressions [ prog 0 0 2; prog 1 2 4 ] in
  check_bool "disjoint progressions verify" true (Verify.satisfies_plan clean sys);
  check_bool "colliding progressions rejected" false
    (Verify.satisfies_plan collide sys);
  check_bool "a collision with an unchecked task is rejected" false
    (Verify.satisfies_plan
       (Plan.progressions [ prog 0 0 2; prog 1 1 4; prog 7 2 4 ])
       sys);
  (* A merge is as sound as its sub-plans: a collision inside either one
     survives the Beatty mapping. *)
  let half = Plan.progressions [ prog 2 0 1 ] in
  check_bool "clean merge verifies" true
    (Verify.satisfies_plan (Plan.merge ~c:1 ~d:2 clean half)
       [ Task.unit ~id:0 ~b:4; Task.unit ~id:1 ~b:8; Task.unit ~id:2 ~b:2 ]);
  check_bool "merge of a colliding plan rejected" false
    (Verify.satisfies_plan (Plan.merge ~c:1 ~d:2 collide half)
       [ Task.unit ~id:0 ~b:4; Task.unit ~id:2 ~b:2 ]);
  check_bool "colliding second half rejected" false
    (Verify.satisfies_plan (Plan.merge ~c:2 ~d:3 half collide)
       [ Task.unit ~id:2 ~b:3 ]);
  (* Three occurrences in a period of 2^21: checked by sorting, not by a
     bitmap of the period. *)
  check_bool "sparse collision rejected" false
    (Verify.satisfies_plan
       (Plan.progressions [ prog 0 5 (1 lsl 20); prog 1 (5 + (1 lsl 20)) (1 lsl 21) ])
       [ Task.unit ~id:0 ~b:(1 lsl 20); Task.unit ~id:1 ~b:(1 lsl 21) ]);
  check_bool "sparse disjoint progressions verify" true
    (Verify.satisfies_plan
       (Plan.progressions [ prog 0 5 (1 lsl 20); prog 1 6 (1 lsl 21) ])
       [ Task.unit ~id:0 ~b:(1 lsl 20); Task.unit ~id:1 ~b:(1 lsl 21) ])

(* Planning and verifying follow the occurrences, not the base x = 2^24 or
   the period 2^26: no column array, no walk of the period. *)
let test_plan_cost_follows_occurrences () =
  let sys = List.init 64 (fun id -> Task.unit ~id ~b:((1 lsl 24) lsl (id mod 3))) in
  let before = Gc.allocated_bytes () in
  (match Scheduler.plan sys with
  | None -> Alcotest.fail "a density-2^-20 system plans"
  | Some plan ->
      check_int "period" (1 lsl 26) (Plan.period plan);
      check_bool "verifies" true (Verify.satisfies_plan plan sys));
  let mib = (Gc.allocated_bytes () -. before) /. 1048576.0 in
  if mib >= 8.0 then Alcotest.failf "allocated %.1f MiB planning 64 tasks" mib

let test_fold_occurrences () =
  let s = sched_of_list [ 1; 2; 1; Schedule.idle; 2 ] in
  let occs = Schedule.fold_occurrences s 1 (fun acc t -> t :: acc) [] in
  Alcotest.(check (list int)) "fold visits ascending" [ 2; 0 ] occs;
  check_int "fold count" 2 (Schedule.fold_occurrences s 2 (fun a _ -> a + 1) 0)

(* ------------------------------------------------------------------ *)
(* Density pre-check                                                   *)
(* ------------------------------------------------------------------ *)

let is_infeasible = function Density.Infeasible _ -> true | _ -> false
let is_guaranteed = function Density.Guaranteed _ -> true | _ -> false

let test_density_pigeonhole () =
  let sys = [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:2; Task.unit ~id:2 ~b:2 ] in
  check_bool "density 3/2 infeasible" true (is_infeasible (Density.classify sys));
  check_bool "scheduler short-circuits" true (Scheduler.plan sys = None)

let test_density_example1 () =
  (* Paper Example 1 / Holte et al.: {2, 3, M} is infeasible for any M
     even though its density can be arbitrarily close to 5/6. *)
  let sys = [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:3; Task.unit ~id:2 ~b:1000 ] in
  check_bool "{2,3,M} infeasible" true (is_infeasible (Density.classify sys));
  check_bool "plan returns None" true (Scheduler.plan sys = None)

let test_density_five_sixths_edge () =
  (* {2, 3} alone sits exactly at density 5/6 with min window 2: a
     schedule exists by Kawamura's bound (and ABAB... indeed schedules
     it), though only 1/2 is guaranteed to plan. *)
  let sys = [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:3 ] in
  check_bool "exactly 5/6 exists" true
    (match Density.classify sys with Density.Exists _ -> true | _ -> false);
  check_bool "and indeed schedulable" true (Scheduler.plan sys <> None)

let test_density_half_edge () =
  let sys = [ Task.unit ~id:0 ~b:4; Task.unit ~id:1 ~b:4 ] in
  check_bool "density 1/2 guaranteed" true (is_guaranteed (Density.classify sys))

let test_density_unknown () =
  (* Density 19/20 > 5/6 without the {2,3} pair: no bound applies. *)
  let sys = [ Task.unit ~id:0 ~b:2; Task.unit ~id:1 ~b:4; Task.unit ~id:2 ~b:5 ] in
  check_bool "between bounds undecided" true (Density.classify sys = Density.Unknown)

let prop_density_infeasible_is_sound =
  QCheck2.Test.make ~name:"density Infeasible verdicts never block a schedulable system"
    ~count:150
    QCheck2.Gen.(pair (int_range 1 4) (int_bound 1_000_000))
    (fun (n, seed) ->
      let sys = Gen.unit_system ~seed ~n ~max_b:8 in
      match Density.classify sys with
      | Density.Infeasible _ -> oracle_verdict (Oracle.Unit.decide sys) <> Some true
      | Density.Guaranteed _ | Density.Exists _ | Density.Unknown -> true)

(* qcheck: whatever classify calls Guaranteed, unit or multi-unit,
   Scheduler.plan plans. *)
let prop_guaranteed_plans =
  QCheck2.Test.make ~name:"every Guaranteed system plans" ~count:300
    QCheck2.Gen.(triple bool (int_range 1 8) (int_bound 1_000_000))
    (fun (multi, n, seed) ->
      let sys =
        if multi then Gen.multi_unit_system ~seed ~n ~max_a:3 ~max_b:48 ~target:0.5
        else Gen.unit_system_with_density ~seed ~n ~max_b:48 ~target:0.5
      in
      sys = []
      || (not (is_guaranteed (Density.classify sys)))
      || Scheduler.plan sys <> None)

(* qcheck: a load folded from [tasks] admits [t] exactly when classify
   does not call [t :: tasks] infeasible. The inputs mix random small
   systems (units of window 1, 2 and 3 come up often) with fixed corner
   cases: the empty list, the {1/2, 1/3, _} family, density exactly 1
   and pc(1,1) tasks. *)
let prop_density_admits_matches_classify =
  let task =
    QCheck2.Gen.(
      oneof
        [
          oneofl [ (1, 1); (1, 2); (1, 3) ];
          int_range 1 8 >>= fun b -> map (fun a -> (a, b)) (int_range 1 b);
        ])
  in
  let corners =
    [
      ([], (1, 1));
      ([], (3, 4));
      ([ (1, 2); (1, 3) ], (1, 9));
      ([ (1, 2); (1, 9) ], (1, 3));
      ([ (1, 2) ], (1, 2));
      ([ (1, 2); (1, 4) ], (1, 4));
      ([ (2, 3) ], (1, 3));
      ([ (1, 1) ], (1, 1));
      ([ (1, 4) ], (1, 1));
    ]
  in
  QCheck2.Test.make ~name:"Density.admits equals classify on the extended system"
    ~count:500
    QCheck2.Gen.(
      oneof [ oneofl corners; pair (list_size (int_bound 6) task) task ])
    (fun (pairs, (a, b)) ->
      let tasks = List.mapi (fun id (a, b) -> Task.make ~id ~a ~b) pairs in
      let t = Task.make ~id:(List.length pairs) ~a ~b in
      let load = List.fold_left Density.add Density.empty tasks in
      Q.equal (Density.density load) (Task.system_density tasks)
      && Density.admits load t
         = not (is_infeasible (Density.classify (t :: tasks))))

let () =
  Alcotest.run "pinwheel"
    [
      ( "task",
        [
          Alcotest.test_case "make" `Quick test_task_make;
          Alcotest.test_case "system density" `Quick test_system_density;
          Alcotest.test_case "duplicate ids" `Quick test_duplicate_ids;
          Alcotest.test_case "decompose units" `Quick test_decompose_units;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "basics" `Quick test_schedule_basics;
          Alcotest.test_case "max_gap" `Quick test_max_gap;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
        ] );
      ( "verify",
        [
          Alcotest.test_case "paper example 1" `Quick test_verify_example1;
          Alcotest.test_case "paper example 1 (multi-unit)" `Quick test_verify_example1b;
          Alcotest.test_case "violation witness" `Quick test_verify_violation;
          Alcotest.test_case "window > period" `Quick test_verify_window_longer_than_period;
          Alcotest.test_case "idle never counts" `Quick test_verify_idle_never_counts;
        ] );
      ( "verify-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_verify_matches_brute_force;
            prop_map_tasks_preserves_counts;
          ] );
      ( "exact",
        [
          Alcotest.test_case "example 1 feasible" `Quick test_exact_example1;
          Alcotest.test_case "paper's infeasible family" `Quick test_exact_infeasible_third_example;
          Alcotest.test_case "density-1 pair" `Quick test_exact_density_one_pair;
          Alcotest.test_case "two-task theorem (Holte)" `Slow test_exact_two_task_theorem;
          Alcotest.test_case "density > 1 infeasible" `Quick test_exact_density_above_one_infeasible;
          Alcotest.test_case "state cap" `Quick test_exact_too_large;
          Alcotest.test_case "interchangeable tasks relabelled" `Quick
            test_exact_relabels_interchangeable;
          Alcotest.test_case "harmonic 5/6 boundary" `Quick test_exact_lin_lin_boundary;
        ] );
      ( "exact-multi",
        [
          Alcotest.test_case "paper example" `Quick test_exact_multi_paper_example;
          Alcotest.test_case "density bound" `Quick test_exact_multi_density_bound;
          Alcotest.test_case "agrees with unit solver" `Slow
            test_exact_multi_agrees_with_unit_exact;
          Alcotest.test_case "saturated tasks" `Quick test_exact_multi_saturated;
          Alcotest.test_case "state cap" `Quick test_exact_multi_too_large;
        ] );
      ( "exact-multi-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_exact_multi_never_contradicts_heuristics; prop_exact_matches_oracles ] );
      ( "harmonic",
        [
          Alcotest.test_case "pack simple" `Quick test_harmonic_pack_simple;
          Alcotest.test_case "overfull rejected" `Quick test_harmonic_pack_overfull;
          Alcotest.test_case "base 3" `Quick test_harmonic_pack_base3;
          Alcotest.test_case "off-chain rejected" `Quick test_harmonic_rejects_off_chain;
          Alcotest.test_case "repeated keys" `Quick test_harmonic_repeated_keys;
        ] );
      ( "harmonic-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_harmonic_density_le_one_packs; prop_buddy_matches_column_scan ] );
      ( "specialize",
        [
          Alcotest.test_case "to_chain" `Quick test_to_chain;
          Alcotest.test_case "Sa example" `Quick test_sa_succeeds_example;
          Alcotest.test_case "Sx picks better base" `Quick test_sx_beats_sa;
          Alcotest.test_case "Sx multi-unit" `Quick test_sx_multi_unit;
          Alcotest.test_case "specialized density" `Quick test_specialized_density;
        ] );
      ( "specialize-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sa_guarantee; prop_sx_dominates_sa; prop_specialize_matches_per_task_sum ] );
      ( "rotation",
        [
          Alcotest.test_case "two-distinct beats Sx" `Quick test_rotation_two_distinct;
          Alcotest.test_case "assign" `Quick test_rotation_assign;
          Alcotest.test_case "exact-period semantics" `Quick
            test_rotation_exact_period_semantics;
          Alcotest.test_case "multi-unit" `Quick test_rotation_multi_unit;
        ] );
      ( "rotation-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_rotation_schedules_verify; prop_rotation_multiple_structure ] );
      ( "two-chain",
        [
          Alcotest.test_case "virtual window" `Quick test_virtual_window;
          Alcotest.test_case "bimodal system" `Quick test_two_chain_bimodal;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "auto verifies" `Quick test_scheduler_auto_verifies;
          Alcotest.test_case "exact fallback" `Quick test_scheduler_exact_fallback;
          Alcotest.test_case "validation" `Quick test_scheduler_validation;
          Alcotest.test_case "guaranteed density" `Quick test_guaranteed_density;
          Alcotest.test_case "plans the Kawamura band" `Quick
            test_scheduler_plans_kawamura_band;
        ] );
      ( "scheduler-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_auto_schedules_are_valid; prop_exact_agrees_with_heuristics ] );
      ( "analysis",
        [
          Alcotest.test_case "schedulable report" `Quick test_analysis_schedulable;
          Alcotest.test_case "density certificate" `Quick test_analysis_density_certificate;
          Alcotest.test_case "exhaustion certificate" `Quick test_analysis_exhausted_certificate;
          Alcotest.test_case "harmonic classification" `Quick test_analysis_harmonic;
        ] );
      ( "analysis-properties",
        List.map QCheck_alcotest.to_alcotest [ prop_analysis_verdicts_sound ] );
      ( "gen",
        [
          Alcotest.test_case "density bounded" `Quick test_gen_density_bounded;
          Alcotest.test_case "multi-unit" `Quick test_gen_multi_unit;
          Alcotest.test_case "validation" `Quick test_gen_validation;
        ] );
      ( "online",
        [
          Alcotest.test_case "satisfies_plan" `Quick test_satisfies_plan;
          Alcotest.test_case "fold_occurrences" `Quick test_fold_occurrences;
          Alcotest.test_case "collisions rejected" `Quick test_verify_rejects_collisions;
          Alcotest.test_case "planning cost follows occurrences" `Quick
            test_plan_cost_follows_occurrences;
        ] );
      ( "online-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_online_matches_eager;
            prop_online_take_reset;
            prop_streaming_verify_agrees;
            prop_closed_form_verify_matches_walk;
          ] );
      ( "density",
        [
          Alcotest.test_case "pigeonhole" `Quick test_density_pigeonhole;
          Alcotest.test_case "example 1 family" `Quick test_density_example1;
          Alcotest.test_case "5/6 edge" `Quick test_density_five_sixths_edge;
          Alcotest.test_case "1/2 edge" `Quick test_density_half_edge;
          Alcotest.test_case "unknown band" `Quick test_density_unknown;
        ] );
      ( "density-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_density_infeasible_is_sound;
            prop_density_admits_matches_classify;
            prop_guaranteed_plans;
          ] );
    ]
