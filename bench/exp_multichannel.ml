(* E24 -- multi-channel sharding: aggregate throughput at K channels.

   Pinwheel scheduling gives every admitted file its fixed rate
   regardless of how many channels exist; what K parallel channels buy
   is *capacity* — more files served at the same per-channel bandwidth.
   This harness fixes a 32-file population whose total density (~5.0)
   swamps one channel, shards it at K = 1, 2, 4, 8 with the
   density-balanced LPT optimizer, and measures:

     - aggregate files served per K (slot-domain deterministic: the
       optimizer sheds what no channel can carry). The acceptance floor
       is K = 4 serving >= 3x the K = 1 files — the capacity-scaling
       claim the multichannel CI gate holds.
     - cohort clients completed per K: a uniform closed-form population
       over every file (shed files' clients all miss), folded per
       channel analytically under Bernoulli loss. The completed-weight
       ratio K = 4 over K = 1 is reported alongside the files ratio.
     - multi-tuner cohort throughput (clients per wall-second at K = 4),
       reported for context, never gated: raw clients/sec is
       hardware-dependent.
     - certification: every sharded design must pass Shardcheck
       (per-channel witnesses, cover, disjointness), and the K = 1
       design must be byte-identical to the paper's single-channel
       program on a schedulable subset with 0-3 spare pieces.
     - size independence: the mean cost of one one-slot request
       against a 768-file design over the same request against a
       32-file design, both from perfbench's fleet generator at K = 4,
       stripe 2. A request reads only its own file's index entries, so
       the ratio stays near 1; the gate holds it at <= 3.
     - design scaling: Shard.design's mean cost per file on 12 288
       fleet files over 64 channels, over its cost on 768 files over 4
       channels (stripe 2, bandwidth 32, 192 files a channel in both),
       timed in alternating rounds. Placement scans the K loads once
       per share and each channel's task list is built once, so only
       planning grows; the gate holds the ratio at <= 2.

   Results land in BENCH_multichannel.json; scripts/bench_gate.ml gates
   the floors (`--kind multichannel`). Quick mode
   (PINDISK_MULTICHANNEL_QUICK=1, used by CI and
   `make bench-multichannel`) shrinks the population and time budget. *)

module File_spec = Pindisk.File_spec
module Program = Pindisk.Program
module Shard = Pindisk.Shard
module Multi = Pindisk_sim.Multi
module Cohort = Pindisk_sim.Cohort
module Engine = Pindisk_sim.Engine
module Fault = Pindisk_sim.Fault
module Workload = Pindisk_sim.Workload
module Shardcheck = Pindisk_check.Shardcheck
module Q = Pindisk_util.Q

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

(* 8 hot files at density 1/4 and 24 cold at 1/8 (window 16 at
   bandwidth 1): total density 5 — one channel holds at most density 1,
   so K = 1 serves a sliver and K = 8 serves everything. *)
let specs () =
  List.init 32 (fun i ->
      let hot = i < 8 in
      File_spec.make
        ~name:(Printf.sprintf "%s%d" (if hot then "hot" else "cold") i)
        ~id:i
        ~blocks:(if hot then 4 else 2)
        ~latency:16 ())

let bandwidth = 1

(* perfbench's fleet generator (perfbench/gen.ml), copied: m 1..4,
   tolerance 0..2 and latency 16..128 s on cycles of 4, 3 and 5. *)
let fleet_specs ~files =
  List.init files (fun id ->
      File_spec.make ~id
        ~blocks:(1 + (id mod 4))
        ~tolerance:(id mod 3)
        ~latency:(16 lsl (id mod 5 mod 4))
        ())

(* Mean cost of one one-slot request for file 0, two tuners, on a
   [files]-file fleet design at K = 4, stripe 2, bandwidth 32. *)
let request_ns ~files =
  match Shard.design ~stripe:2 ~channels:4 ~bandwidth:32 (fleet_specs ~files) with
  | Error e -> failwith ("exp_multichannel: " ^ e)
  | Ok design ->
      let trace = [ { Workload.issued = 0; file = 0; needed = 1; deadline = 1 } ] in
      mean_ns (fun () ->
          Multi.run ~max_slots:1 ~design ~tuners:2
            ~fault:(fun ~channel:_ ~seed:_ -> Fault.none ())
            ~seed:1 trace)

(* Mean cost per file of Shard.design on the fleet at stripe 2,
   bandwidth 32: 768 files on 4 channels, and 12 288 files on 64. The
   two alternate in rounds of equal file counts (16 small designs, one
   large), so a slow spell of a shared machine slows both sides. *)
let design_ns_per_file () =
  let small = fleet_specs ~files:768 and large = fleet_specs ~files:12288 in
  let time ~channels specs reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore
        (Sys.opaque_identity
           (Shard.design ~stripe:2 ~channels ~bandwidth:32 specs))
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (time ~channels:4 small 1 +. time ~channels:64 large 1);
  let rounds = 3 in
  let small_s = ref 0.0 and large_s = ref 0.0 in
  for _ = 1 to rounds do
    small_s := !small_s +. time ~channels:4 small 16;
    large_s := !large_s +. time ~channels:64 large 1
  done;
  let per_file s = s *. 1e9 /. float_of_int (rounds * 12288) in
  (per_file !small_s, per_file !large_s)

(* Uniform closed-form population: every file (served or shed) at 8
   phases; a shed file's clients retire as missed, so completions track
   served capacity, not just admitted traffic. *)
let population ~clients files =
  let phases = 8 in
  let per_class = max 1 (clients / (List.length files * phases)) in
  List.concat_map
    (fun (f : File_spec.t) ->
      List.init phases (fun i ->
          {
            Multi.issued = 2 * i;
            file = f.File_spec.id;
            needed = f.File_spec.blocks;
            deadline = 4 * File_spec.window f ~bandwidth;
            weight = per_class;
          }))
    files

let run () =
  let quick = Sys.getenv_opt "PINDISK_MULTICHANNEL_QUICK" <> None in
  if quick then time_budget := 0.1;
  Format.printf
    "== E24 / multi-channel sharding: aggregate throughput at K channels ==@.";
  let files = specs () in
  let clients = if quick then 1_000_000 else 10_000_000 in
  let members = population ~clients files in
  let sweep =
    List.map
      (fun k ->
        match Shard.design ~channels:k ~bandwidth files with
        | Error e -> failwith ("exp_multichannel: " ^ e)
        | Ok design ->
            let check = Shardcheck.run design in
            let r =
              Multi.run_population ~design ~tuners:1
                ~model:(fun ~channel:_ -> Cohort.Bernoulli { p = 0.05 })
                ~seed:7 members
            in
            let served = List.length design.Shard.specs in
            let density = Shard.aggregate_density design in
            Format.printf
              "  K=%d: %2d/32 files served (density %s), %d/%d clients \
               completed, certified %b@."
              k served
              (Format.asprintf "%a" Q.pp density)
              r.Engine.completed r.Engine.requests (Shardcheck.ok check)
            ;
            (k, design, served, r, Shardcheck.ok check))
      [ 1; 2; 4; 8 ]
  in
  let served k =
    let _, _, s, _, _ = List.find (fun (k', _, _, _, _) -> k' = k) sweep in
    float_of_int s
  in
  let completed k =
    let _, _, _, r, _ = List.find (fun (k', _, _, _, _) -> k' = k) sweep in
    float_of_int r.Engine.completed
  in
  let all_certified =
    List.for_all (fun (_, _, _, _, ok) -> ok) sweep
  in
  let files_ratio = served 4 /. served 1 in
  let completed_ratio = completed 4 /. completed 1 in
  (* K = 1 byte-identity on a subset one channel can carry, given 0-3
     spare pieces: the design's program must be the paper's, the plan of
     {(i, m + r, B·T)} cycling all N pieces, bytes and all. *)
  let identity_ok =
    let subset =
      List.filteri (fun i _ -> i < 4) files
      |> List.mapi (fun i (f : File_spec.t) ->
             File_spec.make ~name:f.File_spec.name ~id:f.File_spec.id
               ~blocks:f.File_spec.blocks ~latency:f.File_spec.latency
               ~capacity:(f.File_spec.blocks + i) ())
    in
    let oracle =
      Pindisk_pinwheel.Scheduler.plan (Pindisk.Bandwidth.tasks ~bandwidth subset)
      |> Option.map (fun plan ->
             Program.make
               ~schedule:(Pindisk_pinwheel.Plan.to_schedule plan)
               ~capacities:
                 (List.map (fun f -> (f.File_spec.id, f.File_spec.capacity)) subset))
    in
    match (Result.map Shard.program (Shard.design ~channels:1 ~bandwidth subset), oracle) with
    | Ok (Some p), Some reference ->
        Format.asprintf "%a" Program.pp p = Format.asprintf "%a" Program.pp reference
    | _ -> false
  in
  (* Cohort throughput at K = 4, wall clock. *)
  let _, design4, _, _, _ = List.find (fun (k, _, _, _, _) -> k = 4) sweep in
  let run4 () =
    Multi.run_population ~design:design4 ~tuners:1
      ~model:(fun ~channel:_ -> Cohort.Bernoulli { p = 0.05 })
      ~seed:7 members
  in
  let total_weight =
    List.fold_left (fun acc (m : Multi.member) -> acc + m.Multi.weight) 0 members
  in
  let ns = mean_ns run4 in
  let clients_per_sec = float_of_int total_weight *. 1e9 /. ns in
  let request_ns_n32 = request_ns ~files:32 in
  let request_ns_n768 = request_ns ~files:768 in
  let request_cost_ratio = request_ns_n768 /. request_ns_n32 in
  (* Files per channel held at 192, as in perfbench's fleet. *)
  let design_ns_n768, design_ns_n12288 = design_ns_per_file () in
  let design_cost_ratio = design_ns_n12288 /. design_ns_n768 in
  Format.printf
    "  aggregate files K4/K1: %.2fx; completed clients K4/K1: %.2fx@."
    files_ratio completed_ratio;
  Format.printf "  K=4 cohort fold: %.2e clients/s; certified %b, K=1 identity %b@."
    clients_per_sec all_certified identity_ok;
  Format.printf
    "  one request, 768 over 32 files: %.0f ns / %.0f ns = %.2fx@."
    request_ns_n768 request_ns_n32 request_cost_ratio;
  Format.printf
    "  design per file, 12288 files on K=64 over 768 on K=4: %.0f ns / %.0f \
     ns = %.2fx@."
    design_ns_n12288 design_ns_n768 design_cost_ratio;
  let path =
    Option.value
      (Sys.getenv_opt "PINDISK_MULTICHANNEL_OUT")
      ~default:"BENCH_multichannel.json"
  in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"multichannel\",\n";
  out "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  out "  \"files_total\": %d,\n" (List.length files);
  out "  \"clients\": %d,\n" total_weight;
  out "  \"aggregate_files_k4_over_k1\": %.2f,\n" files_ratio;
  out "  \"cohort_completed_k4_over_k1\": %.2f,\n" completed_ratio;
  out "  \"shard_coverage_ok\": %.1f,\n" (if all_certified then 1.0 else 0.0);
  out "  \"k1_identity_ok\": %.1f,\n" (if identity_ok then 1.0 else 0.0);
  out "  \"multi_cohort_clients_per_sec\": %.0f,\n" clients_per_sec;
  out "  \"multi_request_cost_n768_over_n32\": %.2f,\n" request_cost_ratio;
  out "  \"design_cost_per_file_n12288_over_n768\": %.2f,\n" design_cost_ratio;
  out "  \"results\": [\n";
  List.iteri
    (fun i (k, design, served, (r : Engine.result), certified) ->
      out
        "    {\"channels\": %d, \"files_served\": %d, \"files_shed\": %d, \
         \"completed\": %d, \"missed\": %d, \"certified\": %b}%s\n"
        k served
        (List.length design.Shard.shed)
        r.Engine.completed r.Engine.missed certified
        (if i = List.length sweep - 1 then "" else ","))
    sweep;
  out "  ]\n}\n";
  close_out oc;
  Format.printf "  wrote %s@.@." path
