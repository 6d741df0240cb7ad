module Program = Pindisk.Program
module Schedule = Pindisk_pinwheel.Schedule
module Plan = Pindisk_pinwheel.Plan
module Ida = Pindisk_ida.Ida
module Aida = Pindisk_ida.Aida
module Fault = Pindisk_sim.Fault
module Item = Pindisk_rtdb.Item
module Mode = Pindisk_rtdb.Mode
module Estimator = Pindisk_adapt.Estimator
module Policy = Pindisk_adapt.Policy
module Ladder = Pindisk_adapt.Ladder
module Controller = Pindisk_adapt.Controller
module Obs = Pindisk_obs

let obs_recovery = Obs.Registry.histogram "store.recovery"

type event =
  | Crash of { at : int; restart_after : int }
  | Stuck_reader of { at : int; length : int }
  | Loss_burst of { at : int; length : int }

type retrieval = { file : int; tune_in : int }

type spec = {
  name : string;
  seed : int;
  horizon : int;
  checkpoint_every : int;
  lookahead : int;
  depth : int;
  fail_p : float;
  slow_p : float;
  loss_p : float;
  events : event list;
  retrievals : retrieval list;
  expect_escalation : bool;
}

type report = {
  spec : spec;
  aired : int;
  down : int;
  faulted : int;
  replayed : int;
  crashes : int;
  recovery_slots : int list;
  retrieved : (retrieval * (int, string) result) list;
  escalated : bool;
  violations : string list;
}

let ok r = r.violations = []

(* ------------------------------------------------------------------ *)
(* The fixed scenario program: two IDA files on an 8-slot program.     *)
(* ------------------------------------------------------------------ *)

let layout =
  [ (0, 0); (1, 0); (0, 1); (0, 2); (1, 1); (0, 3); (1, 2); (0, 4) ]

let capacities = [ (0, 10); (1, 6) ]
let program () = Program.of_layout layout ~capacities

(* (file, m, content length) — m < occurrences per period, so every
   file survives a couple of lost pieces per data cycle. *)
let file_specs = [ (0, 3, 40); (1, 2, 23) ]

let content ~seed ~file ~len =
  Bytes.init len (fun i ->
      Char.chr ((i * 31 + seed * 7 + file * 131 + 5) land 0xff))

let files_of spec =
  List.map
    (fun (file, m, len) -> (file, m, content ~seed:spec.seed ~file ~len))
    file_specs

let latency_of spec =
  let base =
    Latency.stochastic ~fail_p:spec.fail_p ~slow_p:spec.slow_p
      ~slow_slots:(spec.lookahead + 2) ~seed:spec.seed ()
  in
  List.fold_left
    (fun lat -> function
      | Stuck_reader { at; length } ->
          Latency.stuck ~from_:at ~until_:(at + length) lat
      | Crash _ | Loss_burst _ -> lat)
    base spec.events

let make_store spec =
  Block_store.create ~depth:spec.depth ~latency:(latency_of spec)
    ~program:(program ()) (files_of spec)

(* The escalation loop for stall scenarios: a small two-level ladder
   (any population works — the controller observes loss, not files). *)
let make_controller () =
  let items =
    [
      Item.make ~id:0 ~name:"a" ~blocks:2 ~avi:4 ~value:100 ();
      Item.make ~id:1 ~name:"b" ~blocks:4 ~avi:16 ~value:10 ();
    ]
  in
  let base_mode =
    Mode.make ~name:"base" ~default:Aida.Non_real_time
      [ ("a", Aida.Critical 2); ("b", Aida.Standard) ]
  in
  let ladder = Ladder.create ~max_boost:4 ~bandwidth:2 ~base_mode items in
  let estimator = Estimator.create ~alpha:0.6 ~window:8 () in
  let policy =
    Policy.create ~dwell:1
      [
        Policy.level "clear";
        Policy.level ~enter:0.25 ~exit:0.05 ~boost:4 "crisis";
      ]
  in
  Controller.create ~estimator ~policy ladder

(* ------------------------------------------------------------------ *)
(* The runner                                                          *)
(* ------------------------------------------------------------------ *)

let stall_threshold = 4

let run spec =
  let prog = program () in
  let sched = Program.schedule prog in
  let plan = Plan.explicit sched in
  (* The uninterrupted reference: what each logical slot airs when
     nothing ever crashes. Latency verdicts are pure functions of
     (read id, issue slot), so the chaos run must reproduce exactly
     this sequence — including its re-airs after recovery (I2). *)
  let ref_out =
    Obs.Control.with_enabled false (fun () ->
        let server =
          Server.create ~lookahead:spec.lookahead ~plan (make_store spec)
        in
        Array.init spec.horizon (fun _ -> snd (Server.step server)))
  in
  let store = make_store spec in
  let server = ref (Server.create ~lookahead:spec.lookahead ~plan store) in
  let ckpt = ref (Server.checkpoint !server) in
  let chan = Fault.bernoulli ~p:spec.loss_p ~seed:spec.seed in
  let in_burst w =
    List.exists
      (function
        | Loss_burst { at; length } -> w >= at && w < at + length
        | Crash _ | Stuck_reader _ -> false)
      spec.events
  in
  let crash_at w =
    List.find_map
      (function
        | Crash { at; restart_after } when at = w -> Some restart_after
        | _ -> None)
      spec.events
  in
  let ctl = make_controller () in
  let escalated = ref false in
  let stall_run = ref 0 in
  (* wall slot -> Some (logical slot, output, channel lost) | None (down) *)
  let timeline = Array.make spec.horizon None in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let recovery_slots = ref [] in
  (* Some (crash logical slot, checkpoint slot, crash wall, restart wall)
     while the server is down. *)
  let outage = ref None in
  let crashes = ref 0 in
  let aired = ref 0 and downs = ref 0 and faulted = ref 0 and replayed = ref 0 in
  let max_logical = ref (-1) in
  for w = 0 to spec.horizon - 1 do
    (match !outage with
    | Some (c, k, crash_w, until) when w >= until ->
        outage := None;
        (match Server.restore ~lookahead:spec.lookahead ~plan store !ckpt with
        | Ok s ->
            server := s;
            Obs.Trace.record (Obs.Trace.Recover { slot = k; replayed = c - k });
            (* caught up once the (c - k) replayed slots have re-aired *)
            let rt = (w - crash_w) + (c - k) in
            Obs.Histogram.observe obs_recovery rt;
            recovery_slots := rt :: !recovery_slots
        | Error e -> violate "%s: restore failed: %s" spec.name e)
    | _ -> ());
    (match crash_at w with
    | Some restart_after when !outage = None ->
        let c = Server.slot !server in
        incr crashes;
        Obs.Trace.record (Obs.Trace.Crash { slot = c });
        outage := Some (c, !ckpt.Checkpoint.slot, w, w + restart_after)
    | _ -> ());
    let lost_chan = Fault.advance chan || in_burst w in
    ignore (Controller.tick ctl w);
    (match !outage with
    | Some _ ->
        incr downs;
        stall_run := 0;
        Controller.report ctl ~lost:true;
        Controller.decide ctl ~slot:w
    | None ->
        let l, out = Server.step !server in
        if l <= !max_logical then incr replayed else max_logical := l;
        timeline.(w) <- Some (l, out, lost_chan);
        incr aired;
        (match out with
        | Server.Idle -> ()
        | Server.Piece _ ->
            stall_run := 0;
            Controller.report ctl ~lost:lost_chan;
            Controller.decide ctl ~slot:w
        | Server.Faulted _ ->
            incr faulted;
            incr stall_run;
            Controller.report ctl ~lost:true;
            Controller.decide ctl ~slot:w;
            if !stall_run >= stall_threshold then begin
              Controller.notify_stall ctl ~slot:w;
              stall_run := 0
            end);
        if Server.slot !server mod spec.checkpoint_every = 0 then
          ckpt := Server.checkpoint !server);
    (match (Controller.plan ctl).Ladder.rung with
    | Ladder.Baseline -> ()
    | _ -> escalated := true)
  done;
  (* I2: every airing of a logical slot — first time or post-recovery
     re-air — equals the uninterrupted reference. *)
  Array.iteri
    (fun w entry ->
      match entry with
      | Some (l, out, _) when l < Array.length ref_out ->
          if out <> ref_out.(l) then
            violate
              "%s: I2 violated at wall %d: logical slot %d differs from the \
               uninterrupted run"
              spec.name w l
      | _ -> ())
    timeline;
  (* I3: per-file wall gaps, counting a slot as serving its file when
     the plan allocated it — a faulted read still occupied the slot. *)
  List.iter
    (fun file ->
      match Program.delta prog file with
      | None -> ()
      | Some delta ->
          let last = ref None in
          let down_in = ref 0 in
          for w = 0 to spec.horizon - 1 do
            match timeline.(w) with
            | None -> incr down_in
            | Some (l, _, _) ->
                if Schedule.task_at sched l = file then begin
                  (match !last with
                  | Some w1 ->
                      let bound =
                        delta + !down_in + spec.checkpoint_every
                        + spec.lookahead
                      in
                      if w - w1 > bound then
                        violate
                          "%s: I3 violated for file %d: gap %d > bound %d \
                           (wall %d..%d, %d down)"
                          spec.name file (w - w1) bound w1 w !down_in
                  | None -> ());
                  last := Some w;
                  down_in := 0
                end
          done)
    (Program.files prog);
  (* I1 + I4: scripted retrievals reconstruct ground truth in-horizon. *)
  let retrieved =
    List.map
      (fun r ->
        let _, m, truth =
          List.find (fun (f, _, _) -> f = r.file) (files_of spec)
        in
        let seen = Hashtbl.create 8 in
        let result = ref (Error "horizon exhausted before m pieces") in
        (try
           for w = r.tune_in to spec.horizon - 1 do
             match timeline.(w) with
             | Some (_, Server.Piece (f, p), false) when f = r.file ->
                 if not (Hashtbl.mem seen p.Ida.index) then
                   Hashtbl.replace seen p.Ida.index p;
                 if Hashtbl.length seen >= m then begin
                   let pieces = Hashtbl.fold (fun _ p acc -> p :: acc) seen [] in
                   let ida = Ida.create ~m in
                   (match
                      Ida.reconstruct ida ~length:(Bytes.length truth) pieces
                    with
                   | exception Invalid_argument msg -> result := Error msg
                   | b ->
                       if Bytes.equal b truth then result := Ok w
                       else result := Error "reconstructed bytes differ");
                   raise Exit
                 end
             | _ -> ()
           done
         with Exit -> ());
        (match !result with
        | Ok _ -> ()
        | Error e ->
            violate "%s: I1/I4 violated: file %d from wall %d: %s" spec.name
              r.file r.tune_in e);
        (r, !result))
      spec.retrievals
  in
  if spec.expect_escalation && not !escalated then
    violate "%s: expected the controller to escalate, but it never left \
             baseline" spec.name;
  {
    spec;
    aired = !aired;
    down = !downs;
    faulted = !faulted;
    replayed = !replayed;
    crashes = !crashes;
    recovery_slots = List.rev !recovery_slots;
    retrieved;
    escalated = !escalated;
    violations = List.rev !violations;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s: %s@," r.spec.name
    (if ok r then "ok" else "VIOLATED");
  Format.fprintf ppf
    "  aired %d  down %d  faulted %d  replayed %d  crashes %d@," r.aired
    r.down r.faulted r.replayed r.crashes;
  if r.recovery_slots <> [] then
    Format.fprintf ppf "  recovery slots: %a@,"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Format.pp_print_int)
      r.recovery_slots;
  List.iter
    (fun ({ file; tune_in }, res) ->
      match res with
      | Ok w ->
          Format.fprintf ppf "  retrieve file %d @@ %d: done at %d@," file
            tune_in w
      | Error e ->
          Format.fprintf ppf "  retrieve file %d @@ %d: FAILED (%s)@," file
            tune_in e)
    r.retrieved;
  if r.escalated then Format.fprintf ppf "  controller escalated@,";
  List.iter (fun v -> Format.fprintf ppf "  violation: %s@," v) r.violations;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* The fixed-seed suite                                                *)
(* ------------------------------------------------------------------ *)

let base =
  {
    name = "";
    seed = 0;
    horizon = 256;
    checkpoint_every = 16;
    lookahead = 3;
    depth = 8;
    fail_p = 0.0;
    slow_p = 0.0;
    loss_p = 0.0;
    events = [];
    retrievals = [];
    expect_escalation = false;
  }

let suite () =
  [
    {
      base with
      name = "calm-baseline";
      seed = 11;
      loss_p = 0.05;
      retrievals = [ { file = 0; tune_in = 3 }; { file = 1; tune_in = 40 } ];
    };
    {
      base with
      name = "crash-early";
      seed = 23;
      horizon = 320;
      loss_p = 0.02;
      events = [ Crash { at = 37; restart_after = 6 } ];
      retrievals = [ { file = 0; tune_in = 30 }; { file = 1; tune_in = 50 } ];
    };
    {
      base with
      name = "crash-late-long-outage";
      seed = 31;
      horizon = 512;
      checkpoint_every = 32;
      events = [ Crash { at = 300; restart_after = 24 } ];
      retrievals = [ { file = 0; tune_in = 290 }; { file = 1; tune_in = 310 } ];
    };
    {
      base with
      name = "double-crash";
      seed = 47;
      horizon = 512;
      loss_p = 0.02;
      events =
        [
          Crash { at = 100; restart_after = 8 };
          Crash { at = 240; restart_after = 12 };
        ];
      retrievals = [ { file = 0; tune_in = 95 }; { file = 1; tune_in = 230 } ];
    };
    {
      base with
      name = "stuck-reader";
      seed = 59;
      horizon = 400;
      lookahead = 2;
      events = [ Stuck_reader { at = 80; length = 40 } ];
      retrievals = [ { file = 0; tune_in = 200 } ];
      expect_escalation = true;
    };
    {
      base with
      name = "overflow-pressure";
      seed = 67;
      horizon = 300;
      lookahead = 2;
      depth = 2;
      fail_p = 0.05;
      slow_p = 0.4;
      loss_p = 0.02;
      retrievals = [ { file = 0; tune_in = 10 } ];
    };
    {
      base with
      name = "burst-plus-crash";
      seed = 83;
      horizon = 400;
      loss_p = 0.02;
      events =
        [
          Loss_burst { at = 60; length = 20 };
          Crash { at = 70; restart_after = 8 };
        ];
      retrievals = [ { file = 0; tune_in = 55 }; { file = 1; tune_in = 65 } ];
    };
  ]
