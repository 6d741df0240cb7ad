(* E21 -- scheduling scale: the online dispatcher against the eager
   materialized path, n = 16 ... 4096 tasks.

   Two deterministic dyadic task families per size n (a broadcast-disk
   shape: a quarter of the files hot at window n, a quarter at 2n, half
   cold):

     base: windows {n, 2n, 4n}      -- hyperperiod 4n
     deep: windows {n, 2n, 1024n}   -- hyperperiod 1024n, same task count

   Both have density <= 1/2, so Sx always schedules them. "deep" scales
   the hyperperiod by 256x at a fixed task count, which is exactly what
   separates the two paths: the eager schedule's memory follows the
   hyperperiod, the dispatcher's memory follows the task count only.

   Per (family, n) the harness measures plan construction, eager
   construction (Scheduler.plan, Plan.to_schedule, Verify.satisfies),
   per-slot online dispatch, per-slot task_at lookup on the materialized
   array, and reachable words of the plan, dispatcher and schedule.
   Results land in BENCH_sched.json; scripts/bench_gate.ml compares the
   scale-free headline ratios against bench/baselines: the dispatcher's
   cost per slot over task_at's, both timed in the same run (at n = 1024
   and 4096), and the base family's planning cost per task at n = 4096
   over n = 256. The eager build over one dispatched slot is reported
   but not gated: it moves with the planner and verifier, not with the
   dispatcher.

   Quick mode (PINDISK_SCHED_QUICK=1, used by CI and `make bench-sched`)
   trims the time budget and the dispatch sample. *)

module Task = Pindisk_pinwheel.Task
module Plan = Pindisk_pinwheel.Plan
module Schedule = Pindisk_pinwheel.Schedule
module Scheduler = Pindisk_pinwheel.Scheduler
module Verify = Pindisk_pinwheel.Verify
module Obs = Pindisk_obs

let obs_dispatch = Obs.Registry.histogram "sched.dispatch_ns"

let family ~deep n =
  let window i =
    if i < n / 4 then n
    else if i < n / 2 then 2 * n
    else if deep then 1024 * n
    else 4 * n
  in
  List.init n (fun i -> Task.unit ~id:i ~b:(window i))

(* Fixed-work harness: repeat [f] until the budget is spent, return mean
   ns per call. *)
let time_budget = ref 0.2

let mean_ns f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !reps < 2 || !elapsed < !time_budget do
    ignore (Sys.opaque_identity (f ()));
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  !elapsed *. 1e9 /. float_of_int !reps

(* The progressions dispatcher as it stands, frozen: a binary min-heap
   over next-occurrence times, one peek and at most one sift per slot.
   Plan.next is timed against it in the same rounds, so their ratio
   moves only when Plan.next does; a copy of the same algorithm shares
   the machine effects (frequency, a busy sibling core) that a cheaper
   reference operation feels differently. *)
module Frozen = struct
  type t = {
    times : int array;
    keys : int array;
    periods : int array;
    mutable now : int;
  }

  let swap a i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x

  let rec down h i =
    let n = Array.length h.times in
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < n && h.times.(l) < h.times.(i) then l else i in
    let m = if r < n && h.times.(r) < h.times.(m) then r else m in
    if m <> i then begin
      swap h.times i m;
      swap h.keys i m;
      swap h.periods i m;
      down h m
    end

  let next h =
    let v =
      if h.times.(0) = h.now then begin
        let key = h.keys.(0) in
        h.times.(0) <- h.times.(0) + h.periods.(0);
        down h 0;
        key
      end
      else Schedule.idle
    in
    h.now <- h.now + 1;
    v

  (* Each task of a materialized schedule whose occurrences are evenly
     spaced, as every unit task of these families is: its first slot,
     repeating at its first gap (the period for a lone occurrence). *)
  let of_schedule sched =
    let p = Schedule.period sched in
    let first = Hashtbl.create 64 and gap = Hashtbl.create 64 in
    for t = 0 to p - 1 do
      let k = Schedule.task_at sched t in
      if k <> Schedule.idle then
        match Hashtbl.find_opt first k with
        | None -> Hashtbl.replace first k t
        | Some f -> if not (Hashtbl.mem gap k) then Hashtbl.replace gap k (t - f)
    done;
    let progs =
      Hashtbl.fold
        (fun k f acc -> (f, k, Option.value ~default:p (Hashtbl.find_opt gap k)) :: acc)
        first []
      |> List.sort compare |> Array.of_list
    in
    (* Sorted by first slot, the arrays are already a min-heap. *)
    {
      times = Array.map (fun (f, _, _) -> f) progs;
      keys = Array.map (fun (_, k, _) -> k) progs;
      periods = Array.map (fun (_, _, g) -> g) progs;
      now = 0;
    }
end

type row = {
  family : string;
  n : int;
  period : int;
  plan_build_ns : float;
  eager_build_ns : float;
  dispatch_ns_per_slot : float;
  task_at_ns_per_slot : float;
  dispatch_over_frozen : float;
  dispatch_over_task_at : float;
  eager_build_ns_per_slot : float;
  speedup_eager_over_online : float;
  plan_words : int;
  dispatcher_words : int;
  schedule_words : int;
}

(* The eager path: plan, materialize the hyperperiod, verify the array. *)
let eager sys =
  match Scheduler.plan sys with
  | None -> None
  | Some plan ->
      let sched = Plan.to_schedule plan in
      if Verify.satisfies sched sys then Some sched else None

let measure ~quick ~deep n =
  let sys = family ~deep n in
  let plan =
    match Scheduler.plan sys with
    | Some p -> p
    | None -> failwith "exp_sched: family must be schedulable"
  in
  let sched =
    match eager sys with
    | Some s -> s
    | None -> failwith "exp_sched: family must be schedulable"
  in
  let period = Plan.period plan in
  assert (period = Schedule.period sched);
  let plan_build_ns = mean_ns (fun () -> Scheduler.plan sys) in
  let eager_build_ns = mean_ns (fun () -> eager sys) in
  (* Per-slot dispatch: one long-lived dispatcher, batches of [chunk]
     slots (the dispatcher is infinite; no reset between batches),
     against the frozen dispatcher on the same progressions and against
     task_at on the materialized array. The three alternate over
     [rounds] rounds of one batch each, so each round's ratios compare
     them under one machine state; the medians are reported. *)
  let chunk = if quick then 100_000 else 500_000 in
  let rounds = 9 in
  let disp = Plan.create plan and frozen = Frozen.of_schedule sched in
  for t = 0 to min period 65_536 - 1 do
    if Frozen.next frozen <> Schedule.task_at sched t then
      failwith "exp_sched: the frozen dispatcher must replay the schedule"
  done;
  let sink = ref 0 and t = ref 0 in
  let batch f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to chunk do
      sink := !sink lxor f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int chunk
  in
  let timed =
    Array.init rounds (fun _ ->
        let d = batch (fun () -> Plan.next disp) in
        let f = batch (fun () -> Frozen.next frozen) in
        let a =
          batch (fun () ->
              incr t;
              Schedule.task_at sched !t)
        in
        (d, f, a))
  in
  ignore (Sys.opaque_identity !sink);
  let median g =
    let a = Array.map g timed in
    Array.sort Float.compare a;
    a.(rounds / 2)
  in
  let dispatch_ns_per_slot = median (fun (d, _, _) -> d) in
  let task_at_ns_per_slot = median (fun (_, _, a) -> a) in
  let dispatch_over_frozen = median (fun (d, f, _) -> d /. f) in
  let dispatch_over_task_at = median (fun (d, _, a) -> d /. a) in
  if Obs.Control.enabled () then
    Obs.Histogram.observe obs_dispatch (int_of_float dispatch_ns_per_slot);
  let eager_build_ns_per_slot = eager_build_ns /. float_of_int period in
  {
    family = (if deep then "deep" else "base");
    n;
    period;
    plan_build_ns;
    eager_build_ns;
    dispatch_ns_per_slot;
    task_at_ns_per_slot;
    dispatch_over_frozen;
    dispatch_over_task_at;
    eager_build_ns_per_slot;
    speedup_eager_over_online = eager_build_ns_per_slot /. dispatch_ns_per_slot;
    plan_words = Obj.reachable_words (Obj.repr plan);
    dispatcher_words = Obj.reachable_words (Obj.repr disp);
    schedule_words = Obj.reachable_words (Obj.repr sched);
  }

let find rows ~family ~n =
  List.find_opt (fun r -> r.family = family && r.n = n) rows

(* Planning must follow the pieces placed: per task, n = 4096 may cost
   at most a small factor over n = 256 (a packer scanning every column
   per task read 5.1-8.1x here). *)
let plan_cost_ratio rows =
  let per_task r = r.plan_build_ns /. float_of_int r.n in
  match (find rows ~family:"base" ~n:256, find rows ~family:"base" ~n:4096) with
  | Some r256, Some r4k -> Some (per_task r4k /. per_task r256)
  | _ -> None

let write_json ~path ~quick rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"sched\",\n";
  out "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  out "  \"metrics\": %b,\n" (Pindisk_obs.Control.enabled ());
  (match (find rows ~family:"base" ~n:1024, find rows ~family:"base" ~n:4096) with
  | Some r1k, Some r4k ->
      out "  \"dispatch_over_frozen_n1024\": %.3f,\n" r1k.dispatch_over_frozen;
      out "  \"dispatch_over_frozen_n4096\": %.3f,\n" r4k.dispatch_over_frozen;
      out "  \"dispatch_over_task_at_n1024\": %.2f,\n" r1k.dispatch_over_task_at;
      out "  \"dispatch_over_task_at_n4096\": %.2f,\n" r4k.dispatch_over_task_at;
      out "  \"dispatch_speedup_n1024\": %.2f,\n" r1k.speedup_eager_over_online;
      out "  \"dispatch_speedup_n4096\": %.2f,\n" r4k.speedup_eager_over_online
  | _ -> ());
  Option.iter
    (out "  \"plan_cost_per_task_n4096_over_n256\": %.2f,\n")
    (plan_cost_ratio rows);
  (match (find rows ~family:"base" ~n:4096, find rows ~family:"deep" ~n:4096) with
  | Some b, Some d ->
      out "  \"period_ratio_deep_over_base_n4096\": %.2f,\n"
        (float_of_int d.period /. float_of_int b.period);
      out "  \"online_memory_ratio_deep_over_base_n4096\": %.3f,\n"
        (float_of_int d.dispatcher_words /. float_of_int b.dispatcher_words);
      out "  \"schedule_memory_ratio_deep_over_base_n4096\": %.2f,\n"
        (float_of_int d.schedule_words /. float_of_int b.schedule_words)
  | _ -> ());
  out "  \"results\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"family\": \"%s\", \"n\": %d, \"period\": %d, \
         \"plan_build_ns\": %.0f, \"eager_build_ns\": %.0f, \
         \"dispatch_ns_per_slot\": %.1f, \"task_at_ns_per_slot\": %.1f, \
         \"dispatch_over_frozen\": %.3f, \"dispatch_over_task_at\": %.2f, \
         \"eager_build_ns_per_slot\": %.1f, \
         \"speedup_eager_over_online\": %.2f, \"plan_words\": %d, \
         \"dispatcher_words\": %d, \"schedule_words\": %d}%s\n"
        r.family r.n r.period r.plan_build_ns r.eager_build_ns
        r.dispatch_ns_per_slot r.task_at_ns_per_slot r.dispatch_over_frozen
        r.dispatch_over_task_at r.eager_build_ns_per_slot
        r.speedup_eager_over_online r.plan_words r.dispatcher_words
        r.schedule_words
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc

let run () =
  let quick = Sys.getenv_opt "PINDISK_SCHED_QUICK" <> None in
  if quick then time_budget := 0.1;
  Format.printf "== E21 / scheduling scale: online dispatcher vs eager ==@.";
  let sizes = [ 16; 64; 256; 1024; 4096 ] in
  let rows =
    List.concat_map
      (fun n ->
        [ measure ~quick ~deep:false n; measure ~quick ~deep:true n ])
      sizes
  in
  Format.printf "  %-5s %-5s %-9s %-11s %-11s %-10s %-9s %-9s %-8s %-9s %-9s@."
    "fam" "n" "period" "plan ms" "eager ms" "disp ns" "/frozen" "/task_at"
    "speedup" "disp kw" "sched kw";
  List.iter
    (fun r ->
      Format.printf
        "  %-5s %-5d %-9d %-11.2f %-11.2f %-10.1f %-9.3f %-9.1f %-8.1f %-9d %-9d@."
        r.family r.n r.period (r.plan_build_ns /. 1e6) (r.eager_build_ns /. 1e6)
        r.dispatch_ns_per_slot r.dispatch_over_frozen r.dispatch_over_task_at
        r.speedup_eager_over_online
        (r.dispatcher_words / 1000) (r.schedule_words / 1000))
    rows;
  (match (find rows ~family:"base" ~n:4096, find rows ~family:"deep" ~n:4096) with
  | Some b, Some d ->
      Format.printf
        "  headline (n=4096): a dispatched slot costs %.2fx the frozen \
         dispatcher's, %.1fx a task_at lookup and %.1fx less than an \
         eagerly built one; 256x hyperperiod costs the dispatcher %.2fx \
         memory (the schedule %.0fx)@."
        b.dispatch_over_frozen b.dispatch_over_task_at b.speedup_eager_over_online
        (float_of_int d.dispatcher_words /. float_of_int b.dispatcher_words)
        (float_of_int d.schedule_words /. float_of_int b.schedule_words)
  | _ -> ());
  Option.iter
    (Format.printf "  plan cost per task, n=4096 over n=256: %.2fx@.")
    (plan_cost_ratio rows);
  let path =
    Option.value (Sys.getenv_opt "PINDISK_SCHED_OUT") ~default:"BENCH_sched.json"
  in
  write_json ~path ~quick rows;
  Format.printf "  wrote %s@.@." path
