(* air-bytes: real bytes over the air. A generated Designer spec is
   parsed, planned, audited and dispersed into a block store; a server
   airs it slot by slot over a faulty store while an open loop of
   clients (one fault stream each) collects pieces, reconstructs and
   byte-compares every file it completes. Codec and store heavy,
   scheduler light. *)

module Spec = Pindisk_check.Spec
module Audit = Pindisk_check.Audit
module Designer = Pindisk.Designer
module Program = Pindisk.Program
module Plan = Pindisk_pinwheel.Plan
module Block_store = Pindisk_store.Block_store
module Server = Pindisk_store.Server
module Checkpoint = Pindisk_store.Checkpoint
module Latency = Pindisk_store.Latency
module Workload = Pindisk_sim.Workload
module Fault = Pindisk_sim.Fault
module Ida = Pindisk_ida.Ida
module Intmath = Pindisk_util.Intmath

let s_parse = Spans.intern "check.spec_parse"
let s_design = Spans.intern "core.design"
let s_certify = Spans.intern "check.certify"
let s_disperse = Spans.intern "ida.disperse"
let s_server = Spans.intern "store.server_create"
let s_step = Spans.intern "store.step"
let s_admit = Spans.intern "sim.admit"
let s_collect = Spans.intern "sim.collect"
let s_reconstruct = Spans.intern "ida.reconstruct"
let s_verify = Spans.intern "verify.bytes"
let s_checkpoint = Spans.intern "store.checkpoint"
let s_dispatch = Spans.intern "pinwheel.dispatch"

(* Arrivals over [horizon] slots at [rate] per slot; the pass runs on
   until the last listener retires. *)
let horizon = 100_000
let rate = 0.02
let loss = 0.1
let checkpoint_every = 4096
let probe_slots = 100_000

type ready = { store : Block_store.t; plan : Plan.t }

type listener = {
  k : int;
  file : int;
  needed : int;
  deadline : int;
  issued : int;
  fault : Fault.t;
  seen : Bytes.t;
  mutable pieces : Ida.piece list;
  mutable got : int;
  mutable losses : int;
}

(* The nearest-rank percentile of a histogram: the least value [a] with
   at least [p]% of the observations at or below it. *)
let count_percentile hist p =
  let total = Array.fold_left ( + ) 0 hist in
  let need = p /. 100.0 *. float_of_int total in
  let rec go a acc =
    let acc = acc + hist.(a) in
    if float_of_int acc >= need || a + 1 = Array.length hist then a else go (a + 1) acc
  in
  go 0 0

let parse text =
  match Spec.of_string text with
  | Ok (Spec.Designer { byte_rate; reqs }) -> (byte_rate, reqs)
  | Ok (Spec.Generalized _) -> raise (Bench.Gate "spec is not a Designer spec")
  | Error e -> raise (Bench.Gate ("spec: " ^ e))

let plan_of ~byte_rate reqs =
  match Designer.plan ~byte_rate reqs with
  | Ok d -> d
  | Error e -> raise (Bench.Gate ("design: " ^ e))

let make ~quick ~seed =
  let horizon = if quick then horizon / 4 else horizon in
  let text = Gen.design_text () in
  (* Clients know each file's m and window; derive them, untimed. *)
  let byte_rate, reqs = parse text in
  let design = plan_of ~byte_rate reqs in
  let contents =
    Array.of_list
      (List.map
         (fun (r : Designer.requirement) ->
           Gen.contents ~seed ~id:r.Designer.id ~len:r.Designer.bytes)
         reqs)
  in
  let fp id =
    List.find
      (fun (f : Designer.file_plan) -> f.Designer.spec.Pindisk.File_spec.id = id)
      design.Designer.files
  in
  let trace =
    Array.of_list
      (Workload.ycsb ~program:design.Designer.program ~rate
         ~popularity:(Workload.Zipfian { theta = 0.9 })
         ~arrivals:Workload.Steady
         ~needed_of:(fun id -> (fp id).Designer.spec.Pindisk.File_spec.blocks)
         ~deadline_of:(fun id -> (fp id).Designer.window)
         ~horizon ~seed:(Intmath.mix64 (seed + 1)))
  in
  let fault_seed = Intmath.mix64 (seed + 2) in
  let latency_seed = Intmath.mix64 (seed + 3) in
  let ready = ref None in
  let setup spans =
    ready := None;
    let byte_rate, reqs = Spans.span spans s_parse (fun () -> parse text) in
    let design =
      Spans.span spans s_design (fun () -> plan_of ~byte_rate reqs)
    in
    let audit =
      Spans.span spans s_certify (fun () -> Audit.run (Spec.Designer { byte_rate; reqs }))
    in
    (match audit with
    | Ok a -> Bench.gate (Audit.ok a) "Audit.ok is false: %s" (String.concat "; " (Audit.problems a))
    | Error e -> raise (Bench.Gate ("audit: " ^ e)));
    let program = design.Designer.program in
    let files =
      List.map
        (fun (f : Designer.file_plan) ->
          let s = f.Designer.spec in
          (s.Pindisk.File_spec.id, s.Pindisk.File_spec.blocks, contents.(s.Pindisk.File_spec.id)))
        design.Designer.files
    in
    let store =
      Spans.span spans s_disperse (fun () ->
          Block_store.create
            ~latency:
              (Latency.stochastic ~fail_p:0.01 ~slow_p:0.02 ~slow_slots:6
                 ~seed:latency_seed ())
            ~program files)
    in
    let plan =
      Spans.span spans s_server (fun () ->
          let plan = Plan.explicit (Program.schedule program) in
          ignore (Server.create ~plan store);
          plan)
    in
    ready := Some { store; plan }
  in
  let get () = match !ready with Some r -> r | None -> invalid_arg "air-bytes: not set up" in
  let probe spans =
    let r = get () in
    let d = Plan.create r.plan in
    Spans.span spans s_dispatch (fun () ->
        for _ = 1 to probe_slots do
          ignore (Sys.opaque_identity (Plan.next d))
        done)
  in
  let pass spans =
    let r = get () in
    let t_start = Timing.now_ns () in
    Block_store.restore r.store ~next_read:0 [];
    let server = Server.create ~plan:r.plan r.store in
    let decoders = Hashtbl.create 16 in
    let decoder m =
      match Hashtbl.find_opt decoders m with
      | Some d -> d
      | None ->
          let d = Ida.create ~m in
          Hashtbl.add decoders m d;
          d
    in
    let encode0 = Ida.encode_passes () in
    let active = ref [||] and n_active = ref 0 in
    let push l =
      if !n_active = Array.length !active then
        active := Array.append !active (Array.make (max 16 !n_active) l);
      !active.(!n_active) <- l;
      incr n_active
    in
    let remove i =
      decr n_active;
      !active.(i) <- !active.(!n_active)
    in
    let max_slots = horizon + Array.fold_left (fun a (q : Workload.request) -> max a q.Workload.deadline) 0 trace in
    let slot_ns = Array.make max_slots 0.0 in
    (* listeners.(a): slots that found [a] clients listening *)
    let listeners = ref (Array.make 64 0) in
    let waits = ref [] in
    let next = ref 0 in
    let completed = ref 0 and missed = ref 0 and wrong = ref 0 in
    let losses = ref 0 and coded = ref 0 in
    let delivered = ref 0 and rebuilt = ref 0 in
    let busy = ref 0 and faulted = ref 0 in
    let ckpts = ref 0 and ckpt_bytes = ref 0 in
    let slot = ref 0 in
    let last = ref (Timing.now_ns ()) in
    while !next < Array.length trace || !n_active > 0 do
      let s = !slot in
      if !next < Array.length trace && trace.(!next).Workload.issued = s then begin
        let sa = Spans.enter spans s_admit in
        while !next < Array.length trace && trace.(!next).Workload.issued = s do
          let q = trace.(!next) in
          let fault =
            Fault.bernoulli ~p:loss ~seed:(Intmath.mix64 (fault_seed + !next))
          in
          Fault.reset_to fault s;
          push
            {
              k = !next;
              file = q.Workload.file;
              needed = q.Workload.needed;
              deadline = q.Workload.deadline;
              issued = s;
              fault;
              seen = Bytes.make 256 '\000';
              pieces = [];
              got = 0;
              losses = 0;
            };
          incr next
        done;
        Spans.leave spans sa
      end;
      let sp = Spans.enter spans s_step in
      let _, out = Server.step server in
      let sp = Spans.switch spans sp s_collect in
      (match out with
      | Server.Piece _ -> incr busy
      | Server.Faulted _ ->
          incr busy;
          incr faulted
      | Server.Idle -> ());
      if !n_active >= Array.length !listeners then
        listeners := Array.append !listeners (Array.make !n_active 0);
      !listeners.(!n_active) <- !listeners.(!n_active) + 1;
      let i = ref (!n_active - 1) in
      while !i >= 0 do
        let l = !active.(!i) in
        let lost = Fault.advance l.fault in
        (match out with
        | Server.Piece (f, p) when f = l.file ->
            if lost then l.losses <- l.losses + 1
            else if Bytes.get l.seen p.Ida.index = '\000' then begin
              Bytes.set l.seen p.Ida.index '\001';
              l.pieces <- p :: l.pieces;
              l.got <- l.got + 1
            end
        | _ -> ());
        if l.got = l.needed then begin
          let src = contents.(l.file) in
          let len = Bytes.length src in
          let sr = Spans.enter ~req:l.k spans s_reconstruct in
          let bytes = Ida.reconstruct (decoder l.needed) ~length:len l.pieces in
          Spans.leave spans sr;
          let sv = Spans.enter ~req:l.k spans s_verify in
          let same = Bytes.equal bytes src in
          Spans.leave spans sv;
          rebuilt := !rebuilt + len;
          if same then delivered := !delivered + len else incr wrong;
          if List.exists (fun (p : Ida.piece) -> p.Ida.index >= l.needed) l.pieces then incr coded;
          incr completed;
          waits := (s - l.issued + 1) :: !waits;
          losses := !losses + l.losses;
          remove !i
        end
        else if s - l.issued + 1 >= l.deadline then begin
          incr missed;
          losses := !losses + l.losses;
          remove !i
        end;
        decr i
      done;
      Spans.leave spans sp;
      if (s + 1) mod checkpoint_every = 0 then begin
        let sc = Spans.enter spans s_checkpoint in
        let text = Checkpoint.to_string (Server.checkpoint server) in
        Spans.leave spans sc;
        incr ckpts;
        ckpt_bytes := !ckpt_bytes + String.length text
      end;
      (* The traced pass reports layers, not slot times; skipping the
         extra clock read keeps its own overhead out of the spans. *)
      if not (Spans.enabled spans) then begin
        let now = Timing.now_ns () in
        slot_ns.(s) <- float_of_int (now - !last);
        last := now
      end;
      incr slot
    done;
    let wall_s = float_of_int (Timing.now_ns () - t_start) *. 1e-9 in
    let slots = !slot in
    let requests = !completed + !missed in
    let waits = Array.of_list (List.rev_map float_of_int !waits) in
    let hits, lookups =
      Hashtbl.fold
        (fun _ d (h, l) ->
          let hh, mm = Ida.cache_stats d in
          (h + hh, l + hh + mm))
        decoders (0, 0)
    in
    let f = float_of_int in
    {
      Bench.det =
        [
          ("requests", f requests);
          ("missed", f !missed);
          ("miss_ratio", f !missed /. f requests);
          ("wait_p50_slots", Timing.percentile waits 50.0);
          ("wait_p99_slots", Timing.percentile waits 99.0);
          ("ida.encode_passes", f (Ida.encode_passes () - encode0));
          ("store.faulted_ratio", f !faulted /. f !busy);
          ("slots", f slots);
          ("losses", f !losses);
        ];
      attempted = requests;
      failed = !wrong;
      wall_s;
      timings =
        (* A traced pass skips the slot clock, so it has no timings. *)
        (if Spans.enabled spans then []
         else
           let slot_times = Array.sub slot_ns 0 slots in
        [
          Timing.metric ~samples:slots "slots_per_s" "1/s" (f slots /. wall_s);
          Timing.metric ~samples:!completed "delivered_mb_per_s" "MB/s"
            (f !delivered /. 1e6 /. wall_s);
          Timing.metric ~samples:requests "requests_per_s" "1/s" (f requests /. wall_s);
          Timing.metric ~samples:slots "slot_p50_us" "us" (Timing.percentile slot_times 50.0 /. 1e3);
          Timing.metric ~samples:slots "slot_p99_us" "us" (Timing.percentile slot_times 99.0 /. 1e3);
        ]);
      counts =
        [
          ("ida.reconstruct_bytes", f !rebuilt);
          ("ida.coded", f !coded);
          ("ida.inverse_hits", f hits);
          ("ida.inverse_lookups", f lookups);
          ("store.checkpoints", f !ckpts);
          ("store.checkpoint_bytes", f !ckpt_bytes);
          ("sim.listeners_p99", f (count_percentile !listeners 99.0));
          ("source_bytes", f (Array.fold_left (fun a b -> a + Bytes.length b) 0 contents));
        ];
    }
  in
  let e2e passes = Bench.median_timings passes in
  let layers (s : Spans.summary) (p : Bench.pass) =
    let f = float_of_int in
    let c = Bench.count p in
    let d = Bench.det p in
    let reconstruct_s = Spans.self_s s "ida.reconstruct" in
    let reconstructs = f (Spans.count s "ida.reconstruct") in
    let disperse_s = Spans.self_s s "ida.disperse" in
    [
      Timing.metric "check.spec_parse_s" "s" (Spans.self_s s "check.spec_parse");
      Timing.metric "ida.disperse_s" "s" disperse_s;
      Timing.metric "ida.disperse_mb_per_s" "MB/s"
        (Bench.ratio (c "source_bytes" /. 1e6) disperse_s);
      Timing.metric ~samples:(truncate reconstructs) "ida.reconstruct_s" "s" reconstruct_s;
      Timing.metric "ida.reconstructs" "count" reconstructs;
      Timing.metric "ida.reconstruct_mb_per_s" "MB/s"
        (Bench.ratio (c "ida.reconstruct_bytes" /. 1e6) reconstruct_s);
      Timing.metric ~samples:(truncate reconstructs) "ida.coded_ratio" "ratio"
        (Bench.ratio (c "ida.coded") reconstructs);
      Timing.metric ~samples:(truncate (c "ida.inverse_lookups"))
        "ida.inverse_hit_ratio" "ratio"
        (Bench.ratio (c "ida.inverse_hits") (c "ida.inverse_lookups"));
      Timing.metric "ida.inverse_lookups" "count" (c "ida.inverse_lookups");
      Timing.metric "ida.encode_passes" "count" (d "ida.encode_passes");
      Timing.metric ~samples:(Spans.count s "store.step") "store.step_ns" "ns"
        (Spans.mean_self_ns s "store.step");
      Timing.metric ~samples:(truncate (d "slots")) "store.faulted_ratio" "ratio"
        (d "store.faulted_ratio");
      Timing.metric ~samples:(Spans.count s "store.checkpoint") "store.checkpoint_s" "s"
        (Spans.self_s s "store.checkpoint");
      Timing.metric "store.checkpoint_bytes" "B"
        (Bench.ratio (c "store.checkpoint_bytes") (c "store.checkpoints"));
      Timing.metric ~samples:(Spans.count s "sim.collect") "sim.collect_ns" "ns"
        (Spans.mean_self_ns s "sim.collect");
      Timing.metric ~samples:(truncate (d "slots")) "sim.listeners_p99" "count"
        (c "sim.listeners_p99");
      Timing.metric ~samples:probe_slots "pinwheel.dispatch_ns" "ns"
        (Spans.total_s s "pinwheel.dispatch" *. 1e9 /. f probe_slots);
      Timing.metric "core.design_s" "s" (Spans.self_s s "core.design");
      Timing.metric "check.certify_s" "s" (Spans.self_s s "check.certify");
      Timing.metric ~samples:(truncate (d "requests")) "sim.losses_per_request" "count"
        (d "losses" /. d "requests");
    ]
  in
  { Bench.setup; probe; pass; e2e; layers; check = ignore; pool_size = 1 }
