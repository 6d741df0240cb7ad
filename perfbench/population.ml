(* population: about 10^7 clients in weighted classes over an unstriped
   sharded design, folded by [Multi.run_population] on a pool. Bernoulli
   classes fold analytically; a small share of classes under Burst loss
   is sampled member by member. No per-slot walk for the analytic part,
   no bytes.

   Two limits of the population model are guarded here rather than
   measured (both are recorded in README.md):
   - weight-1 classes: per-class integer apportionment rounds each
     class's expected misses away, so a population of single clients
     reports 0 misses where sampled and exact runs report about 1%;
   - striped designs: the fold credits no cross-channel piece pooling,
     so it reports a loose lower bound (about half missed against an
     exact 1%).
   Hence stripe 1, classes of weight >= [min_weight], and an analytic
   miss ratio cross-checked against a sampled run of a subsample. *)

module File_spec = Pindisk.File_spec
module Shard = Pindisk.Shard
module Shardcheck = Pindisk_check.Shardcheck
module Scheduler = Pindisk_pinwheel.Scheduler
module Multi = Pindisk_sim.Multi
module Cohort = Pindisk_sim.Cohort
module Engine = Pindisk_sim.Engine
module Retire = Pindisk_sim.Retire
module Stats = Pindisk_util.Stats
module Pool = Pindisk_util.Pool

let s_design = Spans.intern "core.design"
let s_certify = Spans.intern "check.certify"
let s_plan = Spans.intern "pinwheel.plan"
let s_fold = Spans.intern "sim.fold"
let s_sampled = Spans.intern "sim.fold_sampled"
let s_retire = Spans.intern "sim.retire"

let files = 768
let channels = 4
let phases = 12
let clients = 10_000_000
let min_weight = 1000
let check_classes = 16
let max_slots = 2 * 4096
let bernoulli = Cohort.Bernoulli { p = 0.05 }

let burst =
  Cohort.Burst
    { p_good_to_bad = 0.01; p_bad_to_good = 0.1; loss_good = 0.02; loss_bad = 0.6 }

(* One pool per process, joined at exit. It has one domain, so the
   fold's throughput does not depend on whether another core happens
   to be free on a shared machine; the machine stamp records that no
   scaling number comes out of this run. *)
let pool =
  lazy
    (let p = Pool.create ~domains:(Timing.pool_domains ~want:1) () in
     at_exit (fun () -> Pool.shutdown p);
     p)

let member st (f : File_spec.t) weight =
  {
    Multi.issued = Random.State.int st 65536;
    file = f.File_spec.id;
    needed = f.File_spec.blocks;
    deadline = File_spec.window f ~bandwidth:Gen.fleet_bandwidth;
    weight;
  }

(* Every file at [phases] issue slots; each class holds [min_weight]
   clients plus its Zipf(0.9) share of the rest. *)
let population ~seed ~total specs =
  let st = Gen.rng ~seed 0xb0 in
  let zipf = Array.init files (fun i -> float_of_int (i + 1) ** -0.9) in
  let norm = Array.fold_left ( +. ) 0.0 zipf in
  let rest = total - (min_weight * files * phases) in
  List.concat_map
    (fun (f : File_spec.t) ->
      let share = float_of_int rest *. zipf.(f.File_spec.id) /. norm in
      List.init phases (fun _ ->
          member st f (min_weight + truncate (share /. float_of_int phases))))
    specs

(* The cross-check's classes: random files, one class each. *)
let subsample ~seed specs =
  let st = Gen.rng ~seed 0xb2 in
  let arr = Array.of_list specs in
  List.init check_classes (fun _ ->
      member st arr.(Random.State.int st files) min_weight)

(* The sampled classes: a member walk costs about its file's window, so
   they are chosen by attributes, not by the seed, to keep the sampled
   share's cost the same under every seed. *)
let sampled_attrs = [ (2, 1, 32); (3, 2, 64) ]

let pick_by_attrs ~seed specs =
  let st = Gen.rng ~seed 0xb1 in
  List.map
    (fun (blocks, tolerance, latency) ->
      let f =
        List.find
          (fun (f : File_spec.t) ->
            f.File_spec.blocks = blocks
            && f.File_spec.tolerance = tolerance
            && f.File_spec.latency = latency)
          specs
      in
      member st f min_weight)
    sampled_attrs

let design_of specs =
  match Shard.design ~channels ~bandwidth:Gen.fleet_bandwidth specs with
  | Ok d -> d
  | Error e -> raise (Bench.Gate ("shard design: " ^ e))

let weight ms = List.fold_left (fun a (m : Multi.member) -> a + m.Multi.weight) 0 ms

let fold ?sampled ~model ~seed ms design =
  Multi.run_population ~pool:(Lazy.force pool) ?sampled ~max_slots ~design
    ~tuners:1 ~model:(fun ~channel:_ -> model) ~seed ms

let make ~quick:_ ~seed =
  let specs = Gen.fleet_specs ~files in
  let analytic = population ~seed ~total:clients specs in
  let sampled = pick_by_attrs ~seed specs in
  let subsample = subsample ~seed specs in
  Bench.gate
    (List.for_all (fun (m : Multi.member) -> m.Multi.weight >= min_weight)
       (analytic @ sampled @ subsample))
    "a class below the population model's minimum weight %d" min_weight;
  let ready = ref None in
  let setup spans =
    ready := None;
    let design = Spans.span spans s_design (fun () -> design_of specs) in
    Bench.gate (design.Shard.stripe = 1) "population folds need an unstriped design";
    Bench.gate (design.Shard.shed = []) "%d files shed from a feasible design"
      (List.length design.Shard.shed);
    let cert = Spans.span spans s_certify (fun () -> Shardcheck.run design) in
    Bench.gate (Shardcheck.ok cert) "Shardcheck.ok is false: %s"
      (String.concat "; " (Shardcheck.problems cert));
    ready := Some design
  in
  let get () = match !ready with Some d -> d | None -> invalid_arg "population: not set up" in
  let probe spans =
    Array.iter
      (fun (ch : Shard.channel) ->
        if ch.Shard.tasks <> [] then
          Spans.span spans s_plan (fun () -> ignore (Scheduler.plan ch.Shard.tasks)))
      (get ()).Shard.channels
  in
  let pass spans =
    let design = get () in
    let t0 = Timing.now_ns () in
    let a = Spans.span spans s_fold (fun () -> fold ~model:bernoulli ~seed analytic design) in
    let b = Spans.span spans s_sampled (fun () -> fold ~model:burst ~seed sampled design) in
    let wall_s = float_of_int (Timing.now_ns () - t0) *. 1e-9 in
    let f = float_of_int in
    let r, det =
      Spans.span spans s_retire (fun () ->
          let r = Retire.merge a b in
          ( r,
            [
              ("requests", f r.Engine.requests);
              ("missed", f r.Engine.missed);
              ("miss_ratio", Engine.miss_ratio r);
              ("wait_p50_slots", Stats.percentile r.Engine.latency 50.0);
              ("wait_p99_slots", Stats.percentile r.Engine.latency 99.0);
              ("losses", f r.Engine.losses);
            ] ))
    in
    let n = r.Engine.requests in
    {
      Bench.det;
      attempted = n;
      failed = 0;
      wall_s;
      timings =
        [
          Timing.metric ~samples:n "clients_per_s" "1/s" (f n /. wall_s);
          Timing.metric "fold_ms" "ms" (wall_s *. 1e3);
        ];
      counts =
        [
          ("sim.classes", f (List.length analytic + List.length sampled));
          ("sim.sampled_members", f (weight sampled));
        ];
    }
  in
  (* One pass is one fold, so the fold time's median is taken over
     passes; too few passes fit in a run for a tail percentile. *)
  let e2e (passes : Bench.pass list) =
    let folds =
      Array.of_list (List.map (fun (p : Bench.pass) -> p.Bench.wall_s *. 1e3) passes)
    in
    let n = Array.length folds in
    List.filter (fun (m : Timing.metric) -> m.Timing.name <> "fold_ms") (Bench.median_timings passes)
    @ [ Timing.metric ~samples:n "fold_p50_ms" "ms" (Timing.percentile folds 50.0) ]
  in
  let layers (s : Spans.summary) (p : Bench.pass) =
    [
      Timing.metric "core.design_s" "s" (Spans.self_s s "core.design");
      Timing.metric ~samples:(Spans.count s "pinwheel.plan") "pinwheel.plan_s" "s"
        (Spans.self_s s "pinwheel.plan");
      Timing.metric "check.certify_s" "s" (Spans.self_s s "check.certify");
      Timing.metric "sim.fold_s" "s"
        (Spans.self_s s "sim.fold" +. Spans.self_s s "sim.fold_sampled");
      Timing.metric "sim.classes" "count" (Bench.count p "sim.classes");
      Timing.metric "sim.sampled_members" "count" (Bench.count p "sim.sampled_members");
      Timing.metric ~samples:p.Bench.attempted "sim.losses_per_request" "count"
        (Bench.det p "losses" /. Bench.det p "requests");
    ]
  in
  (* The analytic fold must agree with per-member sampling of the same
     classes, within five standard errors. *)
  let check () =
    let design = get () in
    let a = fold ~model:bernoulli ~seed subsample design in
    let s = fold ~sampled:true ~model:bernoulli ~seed subsample design in
    let pa = Engine.miss_ratio a and ps = Engine.miss_ratio s in
    let n = float_of_int a.Engine.requests in
    let tol = (5.0 *. sqrt (Float.max pa 1e-4 *. (1.0 -. pa) /. n)) +. (1.0 /. n) in
    Bench.gate
      (Float.abs (pa -. ps) <= tol)
      "analytic miss ratio %.5f disagrees with sampled %.5f (tolerance %.5f)" pa ps tol
  in
  { Bench.setup; probe; pass; e2e; layers; check; pool_size = Timing.pool_domains ~want:1 }
