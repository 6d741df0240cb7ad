(* E9 -- fault-model ablation: deadline-miss ratios under iid (Bernoulli)
   and bursty (Gilbert-Elliott) channels, AIDA pinwheel program vs flat
   program, across loss rates. *)

module File_spec = Pindisk.File_spec
module Program = Pindisk.Program
module Fault = Pindisk_sim.Fault
module Experiment = Pindisk_sim.Experiment

let files =
  [
    File_spec.make ~name:"hot" ~id:0 ~blocks:2 ~latency:4 ~tolerance:2 ();
    File_spec.make ~name:"warm" ~id:1 ~blocks:4 ~latency:12 ~tolerance:1 ();
    File_spec.make ~name:"cold" ~id:2 ~blocks:6 ~latency:30 ~tolerance:1 ();
  ]

let run () =
  Format.printf
    "== E9 / fault-model ablation: deadline-miss ratio (2000 clients per \
     cell) ==@.";
  let bandwidth = Option.get (Pindisk.Bandwidth.minimum files) in
  let pinwheel =
    Option.get
      (Pindisk.Shard.program
         (Result.get_ok (Pindisk.Shard.design ~channels:1 ~bandwidth files)))
  in
  let flat =
    Program.flat (List.map (fun f -> (f.File_spec.id, f.File_spec.blocks)) files)
  in
  let bernoulli p ~seed = Fault.bernoulli ~p ~seed in
  let burst p ~seed =
    (* Bursty channel with the same stationary loss rate p. *)
    Fault.burst ~p_good_to_bad:0.05 ~p_bad_to_good:0.2 ~loss_good:0.0
      ~loss_bad:(p /. 0.2) ~seed
  in
  Format.printf "  (programs at %d blocks/sec; deadline = B*T per file)@." bandwidth;
  Format.printf
    "  (pinwheel/AIDA uses %s of the channel and leaves the rest for other \
     traffic;@.   the flat baseline burns 100%% of it on these three \
     files)@."
    (Pindisk_util.Q.to_string
       (Pindisk_pinwheel.Schedule.utilization (Program.schedule pinwheel)));
  Format.printf "  %-6s %-6s | %-17s | %-17s@." "" "" "iid channel" "bursty channel";
  Format.printf "  %-6s %-6s | %8s %8s | %8s %8s@." "file" "loss" "AIDA" "flat"
    "AIDA" "flat";
  List.iter
    (fun f ->
      List.iter
        (fun p ->
          let deadline = File_spec.window f ~bandwidth in
          let miss fault program =
            Experiment.run ~program ~file:f.File_spec.id ~needed:f.File_spec.blocks
              ~deadline ~fault ~trials:2000 ~seed:77
            |> Experiment.miss_ratio
          in
          Format.printf "  %-6s %5.0f%% | %7.1f%% %7.1f%% | %7.1f%% %7.1f%%@."
            f.File_spec.name (100.0 *. p)
            (100.0 *. miss (bernoulli p) pinwheel)
            (100.0 *. miss (bernoulli p) flat)
            (100.0 *. miss (burst p) pinwheel)
            (100.0 *. miss (burst p) flat))
        [ 0.02; 0.1; 0.2 ])
    files;
  Format.printf
    "  (AIDA's provisioned redundancy absorbs iid losses almost \
     completely; bursts@.   are harder -- consecutive blocks die together \
     -- yet the pinwheel program@.   still dominates the flat baseline on \
     the tight-deadline files.)@.@."

(* ------------------------------------------------------------------ *)
(* E22 -- chaos recovery: crash-restart cost and post-crash retrieval  *)
(* latency as the server-side read-fault rate climbs. Every metric is  *)
(* in the slot domain (deterministic under the fixed seeds), so the    *)
(* emitted BENCH_chaos.json gates identically on any runner hardware.  *)
(* ------------------------------------------------------------------ *)

module Scenario = Pindisk_store.Scenario

type chaos_row = {
  fail_p : float;
  recovery : int; (* wall slots from crash until caught up *)
  latency0 : int; (* retrieval latency for file 0 tuned in pre-crash *)
  latency1 : int;
  faulted : int;
  violations : int;
}

let chaos_spec ~fail_p =
  {
    Scenario.name = Printf.sprintf "bench-crash-f%03.0f" (fail_p *. 1000.0);
    seed = 131;
    horizon = 512;
    checkpoint_every = 16;
    lookahead = 3;
    depth = 8;
    fail_p;
    slow_p = 0.0;
    loss_p = 0.0;
    events = [ Scenario.Crash { at = 100; restart_after = 8 } ];
    retrievals =
      [
        { Scenario.file = 0; tune_in = 98 };
        { Scenario.file = 1; tune_in = 98 };
      ];
    expect_escalation = false;
  }

let chaos_row ~fail_p =
  let r = Scenario.run (chaos_spec ~fail_p) in
  let latency file =
    match
      List.find_opt (fun (rt, _) -> rt.Scenario.file = file) r.Scenario.retrieved
    with
    | Some ({ Scenario.tune_in; _ }, Ok done_at) -> done_at - tune_in
    | _ -> -1 (* surfaces as an obvious violation in the artifact *)
  in
  {
    fail_p;
    recovery =
      (match r.Scenario.recovery_slots with [ s ] -> s | _ -> -1);
    latency0 = latency 0;
    latency1 = latency 1;
    faulted = r.Scenario.faulted;
    violations = List.length r.Scenario.violations;
  }

let write_chaos_json ~path rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  let find p = List.find_opt (fun r -> r.fail_p = p) rows in
  out "{\n";
  out "  \"bench\": \"chaos\",\n";
  out "  \"mode\": \"full\",\n";
  out "  \"violations_total\": %d,\n"
    (List.fold_left (fun acc r -> acc + r.violations) 0 rows);
  (match find 0.0 with
  | Some r ->
      out "  \"recovery_slots_f0\": %d,\n" r.recovery;
      out "  \"retrieval_latency_f0\": %d,\n" r.latency0
  | None -> ());
  (match (find 0.0, find 0.2) with
  | Some r0, Some r20 ->
      out "  \"recovery_slots_f20\": %d,\n" r20.recovery;
      out "  \"retrieval_latency_f20\": %d,\n" r20.latency0;
      out "  \"retrieval_latency_ratio_f20_over_f0\": %.3f,\n"
        (float_of_int r20.latency0 /. float_of_int (max 1 r0.latency0))
  | _ -> ());
  out "  \"results\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"fail_p\": %.2f, \"recovery_slots\": %d, \
         \"retrieval_latency_file0\": %d, \"retrieval_latency_file1\": %d, \
         \"faulted_slots\": %d, \"violations\": %d}%s\n"
        r.fail_p r.recovery r.latency0 r.latency1 r.faulted r.violations
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc

let run_chaos () =
  Format.printf
    "== E22 / chaos recovery: crash at slot 100, restart after 8, \
     checkpoint every 16 ==@.";
  let rates = [ 0.0; 0.02; 0.05; 0.1; 0.2 ] in
  let rows = List.map (fun fail_p -> chaos_row ~fail_p) rates in
  Format.printf "  %-8s %-10s %-12s %-12s %-9s %s@." "fail_p" "recovery"
    "latency(A)" "latency(B)" "faulted" "violations";
  List.iter
    (fun r ->
      Format.printf "  %6.0f%% %8d %12d %12d %9d %10d@." (100.0 *. r.fail_p)
        r.recovery r.latency0 r.latency1 r.faulted r.violations)
    rows;
  let path =
    Option.value (Sys.getenv_opt "PINDISK_CHAOS_OUT") ~default:"BENCH_chaos.json"
  in
  write_chaos_json ~path rows;
  Format.printf
    "  (recovery cost is a property of the checkpoint cadence, not the \
     fault rate;@.   read faults instead stretch the client-side retrieval \
     tail. Wrote %s.)@.@."
    path
