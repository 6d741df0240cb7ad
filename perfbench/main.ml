(* The pipeline benchmark: one command, three workloads, every
   end-to-end metric by name and unit, correctness gates on every run.

     dune exec ./perfbench/main.exe -- --workload air-bytes --seed 1 \
       --seconds 8 --trace 0

   The last line of standard output is the result object; the lines
   before it are the human report. With --trace 1 the run also records
   layer spans, reports the per-layer metrics and writes the spans as
   Chrome trace-event JSON under perfbench/_out/. *)

let workloads =
  [
    ("air-bytes", Air_bytes.make);
    ("fleet-exact", Fleet_exact.make);
    ("population", Population.make);
  ]

(* The end-to-end metrics of the result line, which every workload
   reports. A population's requests are its clients. *)
let end_to_end =
  [ ("setup_s", "s"); ("requests_per_s", "1/s"); ("heap_peak_mb", "MB") ]

let source workload name =
  if workload = "population" && name = "requests_per_s" then "clients_per_s"
  else name

(* Every per-layer metric, in the order reported. A workload that does
   not exercise a layer reports it as 0. *)
let per_layer =
  [
    ("check.spec_parse_s", "s"); ("ida.disperse_s", "s");
    ("ida.disperse_mb_per_s", "MB/s"); ("ida.reconstruct_s", "s");
    ("ida.reconstructs", "count"); ("ida.reconstruct_mb_per_s", "MB/s");
    ("ida.coded_ratio", "ratio"); ("ida.inverse_hit_ratio", "ratio");
    ("ida.inverse_lookups", "count"); ("ida.encode_passes", "count");
    ("store.step_ns", "ns"); ("store.faulted_ratio", "ratio");
    ("store.checkpoint_s", "s"); ("store.checkpoint_bytes", "B");
    ("sim.collect_ns", "ns"); ("sim.listeners_p99", "count");
    ("pinwheel.dispatch_ns", "ns"); ("core.design_s", "s");
    ("pinwheel.plan_s", "s"); ("check.certify_s", "s");
    ("core.block_at_ns", "ns"); ("sim.multi_run_s", "s");
    ("sim.fold_s", "s"); ("sim.classes", "count");
    ("sim.sampled_members", "count"); ("sim.losses_per_request", "count");
    ("trace.coverage", "ratio"); ("trace.overhead", "ratio");
    ("share.check", "ratio"); ("share.core", "ratio");
    ("share.pinwheel", "ratio"); ("share.ida", "ratio");
    ("share.store", "ratio"); ("share.sim", "ratio");
    ("share.verify", "ratio"); ("share.bench", "ratio");
  ]

let setup_reps = 7
let s_run = Spans.intern "bench.run"

let find name (ms : Timing.metric list) =
  List.find_opt (fun (m : Timing.metric) -> m.Timing.name = name) ms

(* Every measurement starts from a collected heap, so no pass pays for
   its predecessor's garbage, and is bracketed by two readings of the
   contention reference; the factor rescales it to the reference's
   nominal speed. *)
let measured f =
  Gc.full_major ();
  let before = Timing.reference () in
  let v = f () in
  let after = Timing.reference () in
  (2.0 *. Timing.reference_nominal_s /. (before +. after), v)

let adjusted (factor, (p : Bench.pass)) =
  {
    p with
    Bench.wall_s = p.Bench.wall_s *. factor;
    timings = List.map (Timing.adjust factor) p.Bench.timings;
  }

(* One warm-up pass (caches, lazily built tables), then timed passes
   until the next one would overrun [seconds]; at least one. The
   warm-up pass is returned apart: it counts for the slot-domain
   replay check but not for timing. *)
let run_passes (w : Bench.t) ~seconds =
  let warm = w.Bench.pass Spans.off in
  let t0 = Timing.now_ns () in
  let rec go acc =
    let fp = measured (fun () -> w.Bench.pass Spans.off) in
    let elapsed = float_of_int (Timing.now_ns () - t0) *. 1e-9 in
    if elapsed +. (snd fp).Bench.wall_s > seconds then List.rev (fp :: acc)
    else go (fp :: acc)
  in
  (warm, go [])

let check_passes = function
  | [] -> ()
  | (p0 : Bench.pass) :: rest ->
      List.iteri
        (fun i (p : Bench.pass) ->
          Bench.gate (p.Bench.det = p0.Bench.det)
            "slot-domain outputs of pass %d differ from pass 0 under one seed"
            (i + 1))
        rest;
      List.iter
        (fun (p : Bench.pass) ->
          Bench.gate (p.Bench.failed = 0) "%d requests returned wrong results"
            p.Bench.failed)
        (p0 :: rest)

let heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

type outcome = {
  stamp : Timing.stamp;
  attempted : int;
  report : Timing.metric list;  (** every end-to-end metric, native names *)
  contract : Timing.metric list;  (** the [end_to_end] metrics *)
  layers : Timing.metric list;  (** the [per_layer] metrics, traced run *)
  spans : Spans.summary option;
}

let run ~workload ~seed ~seconds ~trace =
  let make = List.assoc workload workloads in
  let w : Bench.t = make ~quick:false ~seed in
  let setups =
    List.init setup_reps (fun _ ->
        measured (fun () -> fst (Timing.time (fun () -> w.Bench.setup Spans.off))))
  in
  let setup_s f =
    Timing.metric ~samples:setup_reps "setup_s" "s"
      (Timing.median (Array.of_list (List.map f setups)))
  in
  (* A traced run spends half its time on untraced passes, then traces
     one more. *)
  let measure = if trace then seconds /. 2.0 else seconds in
  let warm, timed = run_passes w ~seconds:measure in
  let passes = List.map snd timed in
  let traced =
    if not trace then None
    else
      Some
        (measured (fun () ->
             let spans = Spans.create () in
             let root = Spans.enter spans s_run in
             w.Bench.setup spans;
             w.Bench.probe spans;
             let tp = w.Bench.pass spans in
             Spans.leave spans root;
             (spans, tp)))
  in
  check_passes
    ((warm :: passes) @ Option.fold ~none:[] ~some:(fun (_, (_, tp)) -> [ tp ]) traced);
  w.Bench.check ();
  (* A second seed must run clean too. *)
  let w2 : Bench.t = make ~quick:true ~seed:(seed + 7919) in
  w2.Bench.setup Spans.off;
  check_passes [ w2.Bench.pass Spans.off ];
  w2.Bench.check ();
  let stamp = Timing.stamp ~pool_size:w.Bench.pool_size in
  let det name unit_ =
    Timing.metric ~samples:(truncate (Bench.det warm "requests")) name unit_
      (Bench.det warm name)
  in
  let heap = Timing.metric "heap_peak_mb" "MB" (heap_peak_mb ()) in
  let report =
    (setup_s snd :: w.Bench.e2e passes)
    @ [
        det "miss_ratio" "ratio";
        det "wait_p50_slots" "slots";
        det "wait_p99_slots" "slots";
        heap;
      ]
  in
  let adjusted_report =
    (setup_s (fun (f, t) -> f *. t) :: w.Bench.e2e (List.map adjusted timed)) @ [ heap ]
  in
  let contract =
    List.map
      (fun (name, unit_) ->
        match find (source workload name) adjusted_report with
        | Some m -> { m with Timing.name; unit_ }
        | None -> invalid_arg ("no source for " ^ name))
      end_to_end
  in
  let layers, spans =
    match traced with
    | None -> ([], None)
    | Some (factor, (spans, tp)) ->
        let s = Spans.summarize spans in
        let untraced =
          Timing.median
            (Array.of_list
               (List.map (fun fp -> (adjusted fp).Bench.wall_s) timed))
        in
        let wall = float_of_int s.Spans.wall_ns in
        let shares =
          List.map
            (fun (l, x) -> Timing.metric ("share." ^ l) "ratio" (float_of_int x /. wall))
            s.Spans.by_layer
        in
        let all =
          w.Bench.layers s tp @ shares
          @ [
              Timing.metric ~samples:spans.Spans.n "trace.coverage" "ratio"
                (Spans.coverage s);
              Timing.metric ~samples:(List.length passes) "trace.overhead" "ratio"
                (tp.Bench.wall_s *. factor /. untraced);
            ]
        in
        Timing.write_file
          (Filename.concat Timing.out_dir (Printf.sprintf "trace-%s.json" workload))
          (Spans.chrome_json ~stamp spans);
        ( List.map
            (fun (name, unit_) ->
              match find name all with
              | Some m -> m
              | None -> Timing.metric ~samples:0 name unit_ 0.0)
            per_layer,
          Some s )
  in
  let attempted =
    List.fold_left (fun a (p : Bench.pass) -> a + p.Bench.attempted) 0 passes
  in
  { stamp; attempted; report; contract; layers; spans }

let pp_spans ppf (s : Spans.summary) =
  Format.fprintf ppf "spans (traced run, wall %.6f s):@." (float_of_int s.Spans.wall_ns *. 1e-9);
  List.iter
    (fun (name, (c, d, x)) ->
      Format.fprintf ppf "  %-24s n=%-8d total %.6f s  self %.6f s@." name c
        (float_of_int d *. 1e-9) (float_of_int x *. 1e-9))
    s.Spans.by_name

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME air-bytes | fleet-exact | population");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  Pindisk_obs.Control.set_enabled false;
  let trace = !trace = 1 in
  match run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace with
  | exception Bench.Gate msg ->
      Printf.printf "CORRECTNESS GATE FAILED (%s, seed %d): %s\n" !workload !seed msg;
      exit 1
  | o ->
      Format.printf "workload %s, seed %d, %a@." !workload !seed Timing.pp_stamp o.stamp;
      Format.printf "end-to-end, as measured (median over passes):@.";
      List.iter (Format.printf "%a@." Timing.pp_metric) o.report;
      Format.printf "end-to-end, contention-adjusted (the result line):@.";
      List.iter (Format.printf "%a@." Timing.pp_metric) o.contract;
      Option.iter (pp_spans Format.std_formatter) o.spans;
      if o.layers <> [] then begin
        Format.printf "per-layer (traced run):@.";
        List.iter (Format.printf "%a@." Timing.pp_metric) o.layers
      end;
      Timing.write_file
        (Filename.concat Timing.out_dir
           (Printf.sprintf "result-%s-trace%d.json" !workload (if trace then 1 else 0)))
        (Timing.artifact ~workload:!workload ~seed:!seed ~trace ~stamp:o.stamp
           (o.report @ o.layers));
      print_endline
        (Timing.result_line ~correct:true ~attempted:o.attempted ~failed:0
           (if trace then o.layers else o.contract))
