(* pindisk: design and inspect fault-tolerant real-time broadcast disks
   from the command line.

   Subcommands:
     schedule   -- schedule a raw pinwheel task system
     bandwidth  -- bandwidth bounds for a set of broadcast files
     program    -- build and print a broadcast program
     convert    -- compile a generalized broadcast condition to nice
                   pinwheel conditions
     simulate   -- stochastic retrieval simulation on a program
     adapt      -- static vs closed-loop adaptive server on a scripted
                   time-varying channel
     stats      -- run a canned deterministic pipeline with the
                   observability layer enabled and emit the metrics
                   snapshot as JSON (or re-print a saved snapshot)
     chaos      -- run the scripted fault-injection scenario suite
                   (crashes, stuck readers, loss bursts) and check the
                   recovery invariants

   File syntax (repeatable -f): NAME:BLOCKS:LATENCY[:TOLERANCE]
   Task syntax (repeatable -t): A/B  (task needs A of every B slots)
   Condition syntax: M:D0,D1,...  (size M, latency vector D). *)

open Cmdliner
module P = Pindisk_pinwheel
module Task = P.Task
module Schedule = P.Schedule
module Scheduler = P.Scheduler
module File_spec = Pindisk.File_spec
module Bandwidth = Pindisk.Bandwidth
module Program = Pindisk.Program
module Bc = Pindisk_algebra.Bc
module Convert = Pindisk_algebra.Convert
module Q = Pindisk_util.Q
module Channels = P.Channels
module Shard = Pindisk.Shard
module Shardcheck = Pindisk_check.Shardcheck
module Multi = Pindisk_sim.Multi

let fail fmt = Format.kasprintf (fun s -> `Error (false, s)) fmt

(* Write [contents] to [path], then continue with [k ()]; a path that
   cannot be written is the command's error, "PATH: reason". *)
let write_file path contents k =
  match
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc contents)
  with
  | () -> k ()
  | exception Sys_error e -> fail "%s" e

(* --verbosity / -v from logs.cli, honoured by every subcommand. *)
let setup_logs =
  let setup level =
    Logs.set_level level;
    Logs.set_reporter (Logs_fmt.reporter ())
  in
  Term.(const setup $ Logs_cli.level ())

(* ---------------- argument parsing ---------------- *)

let parse_task i s =
  match String.split_on_char '/' s with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b -> (
          match Task.make ~id:i ~a ~b with
          | t -> Ok t
          | exception Invalid_argument e -> Error e)
      | _ -> Error (Printf.sprintf "bad task %S (want A/B)" s))
  | _ -> Error (Printf.sprintf "bad task %S (want A/B)" s)

let parse_file i s =
  match String.split_on_char ':' s with
  | name :: blocks :: latency :: rest -> (
      let tolerance =
        match rest with
        | [] -> Some 0
        | [ t ] -> int_of_string_opt t
        | _ -> None
      in
      match (int_of_string_opt blocks, int_of_string_opt latency, tolerance) with
      | Some blocks, Some latency, Some tolerance -> (
          match File_spec.make ~name ~id:i ~blocks ~latency ~tolerance () with
          | f -> Ok f
          | exception Invalid_argument e -> Error e)
      | _ -> Error (Printf.sprintf "bad file %S" s))
  | _ -> Error (Printf.sprintf "bad file %S (want NAME:BLOCKS:LATENCY[:TOL])" s)

let parse_bc s =
  match String.split_on_char ':' s with
  | [ m; ds ] -> (
      let d = String.split_on_char ',' ds |> List.map int_of_string_opt in
      match (int_of_string_opt m, List.for_all Option.is_some d) with
      | Some m, true -> (
          match Bc.make ~file:0 ~m ~d:(List.map Option.get d) with
          | bc -> Ok bc
          | exception Invalid_argument e -> Error e)
      | _ -> Error (Printf.sprintf "bad condition %S" s))
  | _ -> Error (Printf.sprintf "bad condition %S (want M:D0,D1,...)" s)

let tasks_arg =
  let doc = "A pinwheel task, as A/B (at least A of every B slots)." in
  Arg.(non_empty & opt_all string [] & info [ "t"; "task" ] ~docv:"A/B" ~doc)

let files_arg =
  let doc = "A broadcast file, as NAME:BLOCKS:LATENCY[:TOLERANCE]." in
  Arg.(
    non_empty & opt_all string []
    & info [ "f"; "file" ] ~docv:"NAME:M:T[:R]" ~doc)

let collect parse l =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match parse i s with
        | Ok v -> go (i + 1) (v :: acc) rest
        | Error e -> Error e)
  in
  go 0 [] l

(* ---------------- multi-channel arguments ---------------- *)

let channels_arg =
  let doc =
    "Shard across $(docv) parallel broadcast channels (density-balanced \
     LPT packing; 1 is the unchanged single-channel pipeline)."
  in
  Arg.(value & opt int 1 & info [ "channels" ] ~docv:"K" ~doc)

let tuners_arg =
  let doc = "Tuners per client (multi-channel simulation only)." in
  Arg.(value & opt int 1 & info [ "tuners" ] ~docv:"T" ~doc)

(* Per-channel bandwidth for sharded designs: the smallest rate at which
   every file individually fits a channel, ceil((m+r)/T) maximised over
   the files — deterministic, and independent of K so K sweeps compare
   like with like. *)
let shard_bandwidth files =
  List.fold_left
    (fun acc f ->
      let need = f.File_spec.blocks + f.File_spec.tolerance in
      max acc ((need + f.File_spec.latency - 1) / f.File_spec.latency))
    1 files

(* The one-channel design's program at [bandwidth] (>= 1), by default
   the smallest the scheduler finds, with that bandwidth; [None] when the
   design sheds a file. *)
let single_channel ?bandwidth files =
  Option.bind
    (match bandwidth with Some b -> Some b | None -> Bandwidth.minimum files)
    (fun b ->
      Result.to_option (Shard.design ~channels:1 ~bandwidth:b files)
      |> Fun.flip Option.bind Shard.program
      |> Option.map (fun p -> (b, p)))

let bandwidth_below_one = function Some b -> b < 1 | None -> false

let bandwidth_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "b"; "bandwidth" ] ~doc:"Bandwidth in blocks/sec (default: search).")

(* ---------------- schedule ---------------- *)

let algorithm_arg =
  let alts =
    [
      ("auto", Scheduler.Auto);
      ("sa", Scheduler.Sa);
      ("sx", Scheduler.Sx);
      ("sr", Scheduler.Sr);
      ("sxy", Scheduler.Sxy);
      ("exact", Scheduler.Exact_small);
    ]
  in
  let doc = "Scheduler: auto, sa, sx, sr, sxy or exact." in
  Arg.(value & opt (enum alts) Scheduler.Auto & info [ "a"; "algorithm" ] ~doc)

let online_arg =
  let doc =
    "Also build the lazy online dispatcher for the same system, print its \
     dispatched first period, and check it replays the eager schedule \
     slot-for-slot over two periods."
  in
  Arg.(value & flag & info [ "online" ] ~doc)

let pp_slots ppf slots =
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf " ";
      if v = Schedule.idle then Format.fprintf ppf "."
      else Format.fprintf ppf "%d" v)
    slots

(* K > 1: partition the system with the channel optimizer and print one
   schedule per shard. K = 1 stays on the single-channel path below,
   byte for byte. *)
let schedule_multichannel ~channels ~algorithm sys =
  let t = Channels.plan ~algorithm ~channels sys in
  Format.printf "channels: %d@." channels;
  List.iter
    (fun (s : Channels.shard) ->
      Format.printf "channel %d: %a@.  density: %a@." s.Channels.channel
        Task.pp_system s.Channels.tasks Q.pp s.Channels.density;
      if s.Channels.tasks <> [] then
        let sched = P.Plan.to_schedule s.Channels.plan in
        Format.printf "  schedule (period %d): %a@." (Schedule.period sched)
          Schedule.pp sched
      else Format.printf "  schedule: (idle)@.")
    t.Channels.shards;
  (match t.Channels.shed with
  | [] -> ()
  | shed -> Format.printf "shed: %a@." Task.pp_system shed);
  `Ok ()

let schedule_cmd =
  let run tasks algorithm online channels =
    match collect parse_task tasks with
    | Error e -> fail "%s" e
    | Ok sys when channels < 1 ->
        ignore sys;
        fail "channels must be >= 1"
    | Ok sys when channels > 1 ->
        Format.printf "system: %a@.density: %a@." Task.pp_system sys Q.pp
          (Task.system_density sys);
        schedule_multichannel ~channels ~algorithm sys
    | Ok sys -> (
        Format.printf "system: %a@.density: %a@." Task.pp_system sys Q.pp
          (Task.system_density sys);
        if online then
          Format.printf "pre-check: %a@." P.Density.pp_verdict
            (P.Density.classify sys);
        match Scheduler.plan ~algorithm sys with
        | Some plan ->
            let sched = P.Plan.to_schedule plan in
            Format.printf "schedule (period %d): %a@." (Schedule.period sched)
              Schedule.pp sched;
            if online then begin
              let p = P.Plan.period plan and d = P.Plan.create plan in
              Format.printf "online (period %d): %a@." p pp_slots
                (Array.init (min p 64) (fun _ -> P.Plan.next d));
              P.Plan.reset d;
              let agree = ref true in
              for t = 0 to (2 * p) - 1 do
                if P.Plan.next d <> Schedule.task_at sched t then agree := false
              done;
              Format.printf "online matches eager over 2 periods: %b@." !agree
            end;
            `Ok ()
        | None ->
            fail "no schedule found by %s"
              (Format.asprintf "%a" Scheduler.pp_algorithm algorithm))
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Schedule a pinwheel task system")
    Term.(
      ret
        (const (fun () -> run)
        $ setup_logs $ tasks_arg $ algorithm_arg $ online_arg $ channels_arg))

(* ---------------- sched-bench ---------------- *)

let sched_bench_cmd =
  (* The e21 "base" family at CLI scale: a quarter of the tasks at window
     n, a quarter at 2n, half at 4n — density 1/2, hyperperiod 4n. *)
  let family n =
    List.init n (fun i ->
        let b = if i < n / 4 then n else if i < n / 2 then 2 * n else 4 * n in
        Task.unit ~id:i ~b)
  in
  let sizes_arg =
    let doc = "Task-system size (repeatable, powers of two >= 8)." in
    Arg.(value & opt_all int [ 16; 64; 256 ] & info [ "n" ] ~docv:"N" ~doc)
  in
  let check_arg =
    let doc =
      "Deterministic mode: verify online/eager agreement over two \
       hyperperiods instead of timing (stable output, used by tests)."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run sizes check =
    let bad = List.filter (fun n -> n < 8 || n land (n - 1) <> 0) sizes in
    if bad <> [] then fail "sizes must be powers of two >= 8"
    else begin
      List.iter
        (fun n ->
          let sys = family n in
          match Scheduler.plan sys with
          | Some plan ->
              let p = P.Plan.period plan in
              if check then begin
                let sched = P.Plan.to_schedule plan in
                let d = P.Plan.create plan in
                let agree = ref true in
                for t = 0 to (2 * p) - 1 do
                  if P.Plan.next d <> Schedule.task_at sched t then
                    agree := false
                done;
                Format.printf
                  "n=%d: period %d, online matches eager over 2 periods: %b@."
                  n p !agree
              end
              else begin
                let t0 = Unix.gettimeofday () in
                let reps = max 1 (1_000_000 / p) in
                let d = P.Plan.create plan in
                let sink = ref 0 in
                for _ = 1 to reps * p do
                  sink := !sink lxor P.Plan.next d
                done;
                ignore (Sys.opaque_identity !sink);
                let ns =
                  (Unix.gettimeofday () -. t0) *. 1e9
                  /. float_of_int (reps * p)
                in
                Format.printf "n=%d: period %d, dispatch %.0f ns/slot@." n p ns
              end
          | None -> Format.printf "n=%d: not schedulable (unexpected)@." n)
        sizes;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "sched-bench"
       ~doc:
         "Scheduling-scale smoke benchmark: online dispatch over the e21 \
          task family (see `make bench-sched` for the full experiment)")
    Term.(ret (const (fun () -> run) $ setup_logs $ sizes_arg $ check_arg))

(* ---------------- bandwidth ---------------- *)

let bandwidth_cmd =
  let run files =
    match collect parse_file files with
    | Error e -> fail "%s" e
    | Ok files ->
        Format.printf "demand (lower bound): %a blocks/sec@." Q.pp
          (Bandwidth.demand files);
        Format.printf "equation-2 sufficient bandwidth: %d blocks/sec@."
          (Bandwidth.required files);
        (match Bandwidth.minimum files with
        | Some b ->
            Format.printf "smallest schedulable bandwidth: %d (overhead %.2fx)@."
              b
              (Bandwidth.overhead ~achieved:b files)
        | None -> Format.printf "no schedulable bandwidth found (unexpected)@.");
        `Ok ()
  in
  Cmd.v
    (Cmd.info "bandwidth" ~doc:"Bandwidth bounds for broadcast files")
    Term.(ret (const (fun () -> run) $ setup_logs $ files_arg))

(* ---------------- program ---------------- *)

let program_cmd =
  let run files bandwidth =
    match collect parse_file files with
    | Error e -> fail "%s" e
    | Ok _ when bandwidth_below_one bandwidth -> fail "bandwidth must be >= 1"
    | Ok files -> (
        match single_channel ?bandwidth files with
        | None -> fail "not schedulable at that bandwidth"
        | Some (b, p) ->
            Format.printf "bandwidth: %d blocks/sec@." b;
            Format.printf "broadcast period: %d slots@." (Program.period p);
            Format.printf "data cycle: %d slots@." (Program.data_cycle p);
            List.iter
              (fun f ->
                Format.printf
                  "  %-12s %d slots/period, max spacing %s, capacity %d@."
                  f.File_spec.name
                  (Program.occurrences_per_period p f.File_spec.id)
                  (match Program.delta p f.File_spec.id with
                  | Some d -> string_of_int d
                  | None -> "-")
                  (Program.capacity p f.File_spec.id))
              files;
            Format.printf "period layout: %a@." Program.pp p;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "program" ~doc:"Build and print a broadcast program")
    Term.(ret (const (fun () -> run) $ setup_logs $ files_arg $ bandwidth_arg))

(* ---------------- convert ---------------- *)

let convert_cmd =
  let run spec =
    match parse_bc spec with
    | Error e -> fail "%s" e
    | Ok bc ->
        Format.printf "condition: %a@." Bc.pp bc;
        Format.printf "density lower bound: %a@." Q.pp (Bc.density_lower_bound bc);
        let show label nice =
          Format.printf "  %-8s density %-8s:" label
            (Q.to_string (Convert.density nice));
          List.iter
            (fun e -> Format.printf " pc(%d,%d)" e.Convert.a e.Convert.b)
            nice;
          Format.printf "@."
        in
        show "TR1" (Convert.tr1 bc);
        show "TR2" (Convert.tr2 bc);
        show "single" (Convert.best_single bc);
        let label, best = Convert.best bc in
        Format.printf "winner: %s@." label;
        show "best" best;
        `Ok ()
  in
  let spec =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"M:D0,D1,..." ~doc:"Broadcast condition (size and latency vector).")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Compile a generalized broadcast condition to nice pinwheel conditions")
    Term.(ret (const (fun () -> run) $ setup_logs $ spec))

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let run tasks =
    match collect parse_task tasks with
    | Error e -> fail "%s" e
    | Ok sys ->
        let report = P.Analysis.analyze sys in
        Format.printf "%a@." P.Analysis.pp_report report;
        (match report.P.Analysis.verdict with
        | P.Analysis.Schedulable sched ->
            Format.printf "schedule: %a@." Schedule.pp sched
        | _ -> ());
        `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Diagnose a pinwheel system: certificates, classification, verdict")
    Term.(ret (const (fun () -> run) $ setup_logs $ tasks_arg))

(* ---------------- export / inspect ---------------- *)

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Write the program to a file.")

let export_cmd =
  let run files bandwidth output =
    match collect parse_file files with
    | Error e -> fail "%s" e
    | Ok _ when bandwidth_below_one bandwidth -> fail "bandwidth must be >= 1"
    | Ok files -> (
        match single_channel ?bandwidth files with
        | None -> fail "not schedulable"
        | Some (b, p) -> (
            match output with
            | Some path ->
                write_file path (Pindisk.Codec.to_string p) (fun () ->
                    Format.printf "wrote %s (bandwidth %d blocks/sec)@." path b;
                    `Ok ())
            | None ->
                print_string (Pindisk.Codec.to_string p);
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Design a program and serialize it")
    Term.(ret (const (fun () -> run) $ setup_logs $ files_arg $ bandwidth_arg $ out_arg))

let inspect_cmd =
  let run path =
    match Pindisk.Codec.read path with
    | Error e -> fail "%s" e
    | Ok p ->
        Format.printf "period: %d slots; data cycle: %d slots@." (Program.period p)
          (Program.data_cycle p);
        List.iter
          (fun f ->
            Format.printf
              "  file %d: %d slots/period, capacity %d, max spacing %s@." f
              (Program.occurrences_per_period p f)
              (Program.capacity p f)
              (match Program.delta p f with
              | Some d -> string_of_int d
              | None -> "-"))
          (Program.files p);
        Format.printf "layout: %a@." Program.pp p;
        `Ok ()
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"PATH" ~doc:"A program file written by export.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Load and describe a serialized program")
    Term.(ret (const (fun () -> run) $ setup_logs $ path))

(* ---------------- design ---------------- *)

let design_cmd =
  let parse_req i s =
    (* NAME:BYTES:LATENCY[:TOLERANCE] *)
    match String.split_on_char ':' s with
    | name :: bytes :: latency :: rest -> (
        let tolerance =
          match rest with
          | [] -> Some 0
          | [ t ] -> int_of_string_opt t
          | _ -> None
        in
        match (int_of_string_opt bytes, int_of_string_opt latency, tolerance) with
        | Some bytes, Some latency_s, Some tolerance -> (
            match
              Pindisk.Designer.requirement ~name ~tolerance ~id:i ~bytes
                ~latency_s ()
            with
            | r -> Ok r
            | exception Invalid_argument e -> Error e)
        | _ -> Error (Printf.sprintf "bad requirement %S" s))
    | _ -> Error (Printf.sprintf "bad requirement %S (want NAME:BYTES:LAT[:TOL])" s)
  in
  let run reqs byte_rate =
    match collect parse_req reqs with
    | Error e -> fail "%s" e
    | Ok reqs -> (
        match Pindisk.Designer.plan ~byte_rate reqs with
        | Error reason -> fail "no feasible plan: %s" reason
        | Ok plan ->
            Format.printf "%a" Pindisk.Designer.pp plan;
            `Ok ())
  in
  let reqs =
    Arg.(
      non_empty & opt_all string []
      & info [ "r"; "require" ] ~docv:"NAME:BYTES:LAT[:TOL]"
          ~doc:"A physical requirement: payload bytes, latency seconds, losses to survive.")
  in
  let byte_rate =
    Arg.(
      required
      & opt (some int) None
      & info [ "rate" ] ~docv:"BYTES/S" ~doc:"Channel byte rate.")
  in
  Cmd.v
    (Cmd.info "design"
       ~doc:"From physical requirements to a provisioned broadcast disk")
    Term.(ret (const (fun () -> run) $ setup_logs $ reqs $ byte_rate))

(* ---------------- audit ---------------- *)

let audit_cmd =
  let module Check = Pindisk_check in
  let run path minify =
    match Check.Spec.load path with
    | Error e -> fail "%s: %s" path e
    | Ok spec -> (
        match Check.Audit.run spec with
        | Error e -> fail "%s: %s" path e
        | Ok report ->
            print_string
              (Check.Json.to_string ~minify (Check.Audit.to_json report));
            if Check.Audit.ok report then `Ok ()
            else
              `Error
                ( false,
                  Printf.sprintf "audit failed: %s"
                    (String.concat "; " (Check.Audit.problems report)) ))
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DESIGN" ~doc:"A design spec file (pindisk-design v1).")
  in
  let minify =
    Arg.(value & flag & info [ "minify" ] ~doc:"Single-line JSON output.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Statically audit a design: re-verify every fault level, validate \
          the algebra's derivation traces with the independent kernel, check \
          IDA dispersal matrices for the MDS property, and classify the \
          exact density")
    Term.(ret (const (fun () -> run) $ setup_logs $ path $ minify))

(* ---------------- serve / receive ---------------- *)

(* A broadcast stream is a line protocol, one line per slot:
     pindisk-stream v1
     meta <file> <m> <capacity> <length>     (per file)
     slot <t> <file> <piece-index> <hex>     (busy slot)
     slot <t> .                              (idle slot)
   so `pindisk serve ... | pindisk receive --file 0` demonstrates the
   whole system across a pipe. *)

let hex_of_bytes b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let bytes_of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  if String.length s mod 2 <> 0 then Error "odd-length hex payload"
  else
    let b = Bytes.create (String.length s / 2) in
    let rec go i =
      if i = Bytes.length b then Ok b
      else
        match (digit s.[2 * i], digit s.[(2 * i) + 1]) with
        | Some hi, Some lo ->
            Bytes.set b i (Char.chr ((hi * 16) + lo));
            go (i + 1)
        | _ -> Error "non-hex payload"
    in
    go 0

let parse_content i s =
  (* NAME:BLOCKS:LATENCY[:TOL]=TEXT -- the file spec plus its payload. *)
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "bad content %S (want SPEC=TEXT)" s)
  | Some eq -> (
      let spec = String.sub s 0 eq in
      let text = String.sub s (eq + 1) (String.length s - eq - 1) in
      match parse_file i spec with
      | Ok f -> Ok (f, Bytes.of_string text)
      | Error e -> Error e)

let serve_cmd =
  let run contents slots =
    match collect parse_content contents with
    | Error e -> fail "%s" e
    | Ok pairs -> (
        let files = List.map fst pairs in
        match single_channel files with
        | None -> fail "not schedulable"
        | Some (_, program) ->
            let module Ida = Pindisk_ida.Ida in
            let transport =
              Pindisk_sim.Transport.create ~program
                (List.map
                   (fun (f, content) ->
                     (f.File_spec.id, f.File_spec.blocks, content))
                   pairs)
            in
            print_endline "pindisk-stream v1";
            List.iter
              (fun (f, content) ->
                Printf.printf "meta %d %d %d %d\n" f.File_spec.id
                  f.File_spec.blocks f.File_spec.capacity
                  (Bytes.length content))
              pairs;
            for t = 0 to slots - 1 do
              match Pindisk_sim.Transport.on_air transport t with
              | None -> Printf.printf "slot %d .\n" t
              | Some (file, piece) ->
                  Printf.printf "slot %d %d %d %s\n" t file piece.Ida.index
                    (hex_of_bytes piece.Ida.data)
            done;
            `Ok ())
  in
  let contents =
    Arg.(
      non_empty & opt_all string []
      & info [ "c"; "content" ] ~docv:"SPEC=TEXT"
          ~doc:"A file spec plus payload, e.g. alerts:2:4:2=the-text.")
  in
  let slots =
    Arg.(value & opt int 64 & info [ "slots" ] ~doc:"Number of slots to emit.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Broadcast IDA-dispersed content as a line stream on stdout")
    Term.(ret (const (fun () -> run) $ setup_logs $ contents $ slots))

(* Read a stream from stdin until [file] reconstructs: [Ok (Some bytes)],
   [Ok None] at the end of the stream, or [Error] naming the first
   malformed line. *)
let receive_stream ~file ~loss ~seed =
  let module Ida = Pindisk_ida.Ida in
  let exception Bad of string in
  let rng = Random.State.make [| seed |] in
  let metas = Hashtbl.create 4 in
  let collected = Hashtbl.create 8 in
  let piece_size = ref None in
  let dropped = ref 0 and seen = ref 0 and lineno = ref 0 in
  let bad fmt =
    Printf.ksprintf (fun s -> raise (Bad (Printf.sprintf "line %d: %s" !lineno s))) fmt
  in
  let int_field what s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> bad "%s %S is not an integer" what s
  in
  let piece f idx payload =
    if idx < 0 || idx >= 255 then bad "piece index %d outside [0, 255)" idx;
    let data = match bytes_of_hex payload with Ok d -> d | Error e -> bad "%s" e in
    let m, len =
      match Hashtbl.find_opt metas f with
      | Some meta -> meta
      | None -> bad "piece of file %d before its meta line" f
    in
    if f <> file then None
    else begin
      incr seen;
      if Random.State.float rng 1.0 < loss then (incr dropped; None)
      else begin
        let size = Bytes.length data in
        (match !piece_size with
        | Some s when s <> size ->
            bad "piece of %d bytes where file %d's earlier pieces hold %d" size f s
        | _ -> piece_size := Some size);
        if not (Hashtbl.mem collected idx) then
          Hashtbl.replace collected idx { Ida.index = idx; data };
        if Hashtbl.length collected < m then None
        else if len > m * size then
          bad "file %d's length %d exceeds its %d pieces of %d bytes" f len m size
        else
          let pieces = Hashtbl.fold (fun _ p acc -> p :: acc) collected [] in
          Some (Ida.reconstruct (Ida.create ~m) ~length:len pieces)
      end
    end
  in
  let line () =
    incr lineno;
    input_line stdin
  in
  let rec loop () =
    match line () with
    | exception End_of_file -> None
    | l -> (
        match String.split_on_char ' ' l with
        | [ "meta"; f; m; cap; len ] ->
            let f = int_field "file" f in
            let m = int_field "m" m in
            let cap = int_field "capacity" cap in
            let len = int_field "length" len in
            if not (1 <= m && m <= cap && cap <= 255 && len >= 0) then
              bad "meta needs 1 <= m <= capacity <= 255 and a length >= 0";
            Hashtbl.replace metas f (m, len);
            loop ()
        | [ "slot"; t; "." ] ->
            ignore (int_field "slot" t);
            loop ()
        | [ "slot"; t; f; idx; payload ] -> (
            ignore (int_field "slot" t);
            let f = int_field "file" f in
            let idx = int_field "piece index" idx in
            match piece f idx payload with
            | Some bytes -> Some bytes
            | None -> loop ())
        | _ -> bad "bad stream line %S" l)
  in
  match
    (match line () with
    | "pindisk-stream v1" -> loop ()
    | other -> bad "unknown stream header %S" other
    | exception End_of_file -> bad "empty stream")
  with
  | exception Bad msg -> Error msg
  | None -> (
      match Hashtbl.find_opt metas file with
      | None -> Error (Printf.sprintf "file %d never appeared in the stream" file)
      | Some (m, _) ->
          Error
            (Printf.sprintf "stream ended before %d distinct pieces of file %d arrived"
               m file))
  | Some bytes -> Ok (bytes, !seen - !dropped, !dropped)

let receive_cmd =
  let run file loss seed =
    if not (loss >= 0.0 && loss <= 1.0) then fail "loss must be in [0, 1]"
    else
      match receive_stream ~file ~loss ~seed with
      | Error e -> fail "%s" e
      | Ok (bytes, received, dropped) ->
          Format.eprintf "reconstructed %d bytes from %d receptions (%d dropped)@."
            (Bytes.length bytes) received dropped;
          print_string (Bytes.to_string bytes);
          print_newline ();
          `Ok ()
  in
  let file =
    Arg.(required & opt (some int) None & info [ "file" ] ~doc:"File id to reconstruct.")
  in
  let loss =
    Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"Reception loss probability.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Loss seed.") in
  Cmd.v
    (Cmd.info "receive"
       ~doc:"Reconstruct one file from a broadcast stream on stdin")
    Term.(ret (const (fun () -> run) $ setup_logs $ file $ loss $ seed))

(* ---------------- metrics plumbing ---------------- *)

module Obs = Pindisk_obs

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Enable the observability layer for this run and write the final \
           metrics snapshot (pindisk-metrics v1 JSON) to $(docv).")

let snapshot_string ?minify () =
  Pindisk_check.Json.to_string ?minify
    (Pindisk_check.Metrics.snapshot_to_json (Obs.Snapshot.take ()))

(* Enable + reset before the run so the snapshot covers exactly this
   command; written even when the run itself reports an error, since a
   partial snapshot is still worth keeping. *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
      Obs.Control.set_enabled true;
      Obs.Snapshot.reset ();
      let result = f () in
      write_file path (snapshot_string ()) (fun () -> result)

(* ---------------- stats ---------------- *)

let stats_cmd =
  (* A small, fully seeded end-to-end exercise of the broadcast pipeline —
     designer output, engine workload, IDA transport retrievals — so every
     instrumented layer contributes counters, histograms and trace events.
     Deterministic: the emitted snapshot is byte-stable across runs, which
     the cram test relies on. *)
  let canned () =
    let files =
      [
        File_spec.make ~name:"alerts" ~id:0 ~blocks:2 ~latency:8 ~tolerance:1 ();
        File_spec.make ~name:"map" ~id:1 ~blocks:4 ~latency:16 ~tolerance:0 ();
      ]
    in
    match single_channel files with
    | None -> fail "internal: canned stats workload not schedulable"
    | Some (b, program) ->
        let spec id = List.nth files id in
        let trace =
          Pindisk_sim.Workload.generate ~program ~rate:0.05 ~theta:0.9
            ~needed_of:(fun id -> (spec id).File_spec.blocks)
            ~deadline_of:(fun id -> File_spec.window (spec id) ~bandwidth:b)
            ~horizon:500 ~seed:3
        in
        ignore
          (Pindisk_sim.Engine.run ~program
             ~fault:(fun ~seed -> Pindisk_sim.Fault.bernoulli ~p:0.1 ~seed)
             ~seed:5 trace);
        let content id len =
          Bytes.init len (fun i -> Char.chr (((id * 31) + (i * 7) + 3) land 0xff))
        in
        let transport =
          Pindisk_sim.Transport.create ~program
            [ (0, 2, content 0 96); (1, 4, content 1 200) ]
        in
        List.iter
          (fun file ->
            ignore
              (Pindisk_sim.Transport.retrieve transport ~file ~start:0
                 ~fault:(Pindisk_sim.Fault.bernoulli ~p:0.2 ~seed:(9 + file))))
          [ 0; 1 ];
        `Ok ()
  in
  let run check minify =
    match check with
    | Some path -> (
        let contents =
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Pindisk_check.Metrics.snapshot_of_string contents with
        | Error e -> fail "%s: %s" path e
        | Ok snap ->
            print_string
              (Pindisk_check.Json.to_string ~minify
                 (Pindisk_check.Metrics.snapshot_to_json snap));
            `Ok ())
    | None -> (
        Obs.Control.set_enabled true;
        Obs.Snapshot.reset ();
        match canned () with
        | `Ok () ->
            print_string (snapshot_string ~minify ());
            `Ok ()
        | err -> err)
  in
  let check =
    Arg.(
      value
      & opt (some file) None
      & info [ "check" ] ~docv:"SNAPSHOT"
          ~doc:
            "Instead of running, parse a previously written metrics snapshot \
             and re-print it (a lossless round-trip: output is byte-identical \
             to what $(b,pindisk stats) or $(b,--metrics) emitted).")
  in
  let minify =
    Arg.(value & flag & info [ "minify" ] ~doc:"Single-line JSON output.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Exercise the pipeline with the observability layer enabled and \
          print the metrics snapshot as JSON")
    Term.(ret (const (fun () -> run) $ setup_logs $ check $ minify))

(* ---------------- adapt ---------------- *)

(* Closed-loop adaptive degradation demo: a static AIDA server and the
   adaptive controller (loss estimator -> hysteresis policy -> degradation
   ladder -> cycle-boundary hot-swap) run the same request trace over the
   same scripted channel; the report shows per-phase miss ratios and the
   swap log. *)

let adapt_cmd =
  let module Item = Pindisk_rtdb.Item in
  let module Mode = Pindisk_rtdb.Mode in
  let module Aida = Pindisk_ida.Aida in
  let module Adapt = Pindisk_adapt in
  let parse_phase s =
    (* LEN:RATE -- a channel segment of LEN slots at stationary loss RATE,
       realized as a Gilbert-Elliott chain. *)
    match String.split_on_char ':' s with
    | [ len; rate ] -> (
        match (int_of_string_opt len, float_of_string_opt rate) with
        | Some len, Some rate when len > 0 && rate >= 0.0 && rate <= 0.75 ->
            Ok (len, rate)
        | _ -> Error (Printf.sprintf "bad phase %S (want LEN:RATE, rate <= 0.75)" s))
    | _ -> Error (Printf.sprintf "bad phase %S (want LEN:RATE)" s)
  in
  let run phases rate seed bucket metrics =
    with_metrics metrics @@ fun () ->
    let phases = if phases = [] then [ "4000:0.01"; "6000:0.4"; "6000:0.01" ] else phases in
    if rate <= 0.0 then fail "request rate must be positive"
    else if not (Float.is_finite rate) then fail "request rate must be finite"
    else if bucket < 1 then fail "bucket must be >= 1"
    else
    match collect (fun _ s -> parse_phase s) phases with
    | Error e -> fail "%s" e
    | Ok phases ->
        let items =
          [
            Item.make ~id:0 ~name:"alerts" ~blocks:2 ~avi:4 ~value:100 ();
            Item.make ~id:1 ~name:"telemetry" ~blocks:3 ~avi:8 ~value:30 ();
            Item.make ~id:2 ~name:"map" ~blocks:6 ~avi:24 ~value:10 ();
            Item.make ~id:3 ~name:"feed" ~blocks:8 ~avi:48 ~value:1 ();
          ]
        in
        let cruise =
          Mode.make ~name:"cruise" ~default:Aida.Non_real_time
            [
              ("alerts", Aida.Critical 2);
              ("telemetry", Aida.Standard);
              ("map", Aida.Standard);
            ]
        in
        let essential =
          Mode.make ~name:"essential" ~default:Aida.Non_real_time
            [ ("alerts", Aida.Critical 2); ("telemetry", Aida.Standard) ]
        in
        let bandwidth = 4 in
        let ladder =
          Adapt.Ladder.create ~fallbacks:[ essential ] ~max_boost:3 ~bandwidth
            ~base_mode:cruise items
        in
        let policy =
          Adapt.Policy.create ~dwell:3
            [
              Adapt.Policy.level "clear";
              Adapt.Policy.level ~boost:1 ~enter:0.10 ~exit:0.05 "degraded";
              Adapt.Policy.level ~boost:2 ~enter:0.25 ~exit:0.15 "storm";
            ]
        in
        let estimator = Adapt.Estimator.create ~alpha:0.6 ~window:32 () in
        let ctl = Adapt.Controller.create ~estimator ~policy ladder in
        let baseline = (Adapt.Controller.plan ctl).Adapt.Ladder.program in
        let script =
          List.mapi
            (fun i (length, loss) ->
              {
                Adapt.Driver.length;
                fault =
                  Pindisk_sim.Fault.burst ~p_good_to_bad:0.3 ~p_bad_to_good:0.1
                    ~loss_good:0.0 ~loss_bad:(loss /. 0.75) ~seed:(seed + i);
              })
            phases
        in
        let losses = Adapt.Driver.losses script in
        let horizon = Array.length losses in
        let trace =
          Pindisk_sim.Workload.generate ~program:baseline ~rate ~theta:0.9
            ~needed_of:(fun id -> (List.nth items id).Item.blocks)
            ~deadline_of:(fun id -> bandwidth * (List.nth items id).Item.avi)
            ~horizon ~seed:(seed + 100)
        in
        let static = Adapt.Driver.run ~bucket ~program:baseline ~losses trace in
        let adaptive =
          Adapt.Driver.run ~bucket ~controller:ctl ~program:baseline ~losses trace
        in
        Format.printf "bandwidth %d blocks/sec; %d requests over %d slots@."
          bandwidth (List.length trace) horizon;
        Format.printf "%-24s %10s %10s@." "phase (slots at rate)" "static"
          "adaptive";
        let t0 = ref 0 in
        List.iter
          (fun (len, loss) ->
            let t1 = !t0 + len in
            Format.printf "%-24s %9.1f%% %9.1f%%@."
              (Printf.sprintf "%d..%d @ %.0f%%" !t0 t1 (100.0 *. loss))
              (100.0 *. Adapt.Driver.window_miss_ratio static ~t0:!t0 ~t1)
              (100.0 *. Adapt.Driver.window_miss_ratio adaptive ~t0:!t0 ~t1);
            t0 := t1)
          phases;
        Format.printf "%-24s %9.1f%% %9.1f%%@." "overall"
          (100.0 *. Adapt.Driver.miss_ratio static)
          (100.0 *. Adapt.Driver.miss_ratio adaptive);
        Format.printf "swap log:@.";
        if adaptive.Adapt.Driver.swaps = [] then Format.printf "  (no swaps)@."
        else
          List.iter
            (fun e -> Format.printf "  %a@." Adapt.Swap.pp_entry e)
            adaptive.Adapt.Driver.swaps;
        `Ok ()
  in
  let phases =
    Arg.(
      value & opt_all string []
      & info [ "p"; "phase" ] ~docv:"LEN:RATE"
          ~doc:
            "A channel segment: LEN slots at stationary loss RATE (repeat \
             for a script; default 4000:0.01 6000:0.4 6000:0.01).")
  in
  let rate =
    Arg.(
      value & opt float 0.08
      & info [ "rate" ] ~doc:"Request arrival rate per slot.")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Random seed.") in
  let bucket =
    Arg.(value & opt int 500 & info [ "bucket" ] ~doc:"Timeline bucket in slots.")
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:"Closed-loop adaptive degradation vs a static server")
    Term.(
      ret
        (const (fun () -> run)
        $ setup_logs $ phases $ rate $ seed $ bucket $ metrics_arg))

(* ---------------- simulate ---------------- *)

module Cohort = Pindisk_sim.Cohort
module SimEngine = Pindisk_sim.Engine
module SimStats = Pindisk_util.Stats

(* One row per file the result covers, then the overall row; the
   cohort modes print a header above it. *)
let print_file_table ~header (r : SimEngine.result) files =
  if header then
    Format.printf "  %-12s %9s %9s %9s %9s@." "file" "requests" "missed" "miss%"
      "mean wait";
  let row name requests missed miss latency =
    Format.printf "  %-12s %9d %9d %8.1f%% %9.2f@." name requests missed
      (100.0 *. miss) (SimStats.mean latency)
  in
  List.iter
    (fun f ->
      match
        List.find_opt
          (fun (pf : SimEngine.file_stats) -> pf.SimEngine.file = f.File_spec.id)
          r.SimEngine.per_file
      with
      | None -> ()
      | Some pf ->
          row f.File_spec.name pf.SimEngine.requests pf.SimEngine.missed
            (SimEngine.file_miss_ratio pf) pf.SimEngine.latency)
    files;
  row "overall" r.SimEngine.requests r.SimEngine.missed (SimEngine.miss_ratio r)
    r.SimEngine.latency

(* [clients] dealt over one class per (phase, file), phase by phase
   and file by file within a phase: [clients / classes] each, and one
   more to each of the first [clients mod classes], so exactly
   [clients] are folded and every file has a client once there are as
   many clients as files. Classes dealt no client are dropped. *)
let deal ~clients ~phases files make =
  let classes =
    List.concat
      (List.init phases (fun i -> List.map (fun f -> make i f) files))
  in
  let n = List.length classes in
  List.filteri (fun i _ -> i < clients) classes
  |> List.mapi (fun i with_weight ->
         with_weight ((clients / n) + if i < clients mod n then 1 else 0))

(* Closed-form cohort run: [clients] dealt evenly over every file at up
   to 16 phases across the period, folded analytically under Bernoulli
   loss. No RNG anywhere, so the output is a stable golden (exercised
   by test/cli/cohort.t). *)
let simulate_cohort ~program ~bandwidth ~loss ~seed ~clients files =
  let period = Program.period program in
  let phases = min period 16 in
  let classes =
    deal ~clients ~phases files (fun i f weight ->
        {
          Cohort.key =
            {
              Cohort.file = f.File_spec.id;
              phase = i * (period / phases);
              needed = f.File_spec.blocks;
              deadline = File_spec.window f ~bandwidth;
            };
          weight;
        })
  in
  let r =
    Cohort.run_population ~program ~model:(Cohort.Bernoulli { p = loss }) ~seed
      classes
  in
  Format.printf "cohort: %d clients in %d classes (analytic fold)@."
    r.SimEngine.requests (List.length classes);
  print_file_table ~header:true r files;
  Format.printf "  losses absorbed: %d@." r.SimEngine.losses

(* The sharded analogue of [simulate_cohort]: members dealt evenly
   over every file (admitted or shed — a shed file's clients all miss)
   at 16 phases, folded per channel. Analytic under Bernoulli, so the
   output is a stable golden (test/cli/multichannel.t). *)
let simulate_multi_cohort ~design ~tuners ~loss ~seed ~clients files =
  let members =
    deal ~clients ~phases:16 files (fun i f weight ->
        {
          Multi.issued = i;
          file = f.File_spec.id;
          needed = f.File_spec.blocks;
          deadline = File_spec.window f ~bandwidth:design.Shard.bandwidth;
          weight;
        })
  in
  let r =
    Multi.run_population ~design ~tuners
      ~model:(fun ~channel:_ -> Cohort.Bernoulli { p = loss })
      ~seed members
  in
  Format.printf "cohort: %d clients in %d classes (per-channel fold)@."
    r.SimEngine.requests (List.length members);
  print_file_table ~header:true r files;
  Format.printf "  losses absorbed: %d@." r.SimEngine.losses

(* Per-request sampled run over the sharded design: [trials] clients per
   file, issue slots spread one per slot, per-channel fault processes. *)
let simulate_multi_trials ~design ~tuners ~loss ~trials ~seed files =
  let trace =
    List.concat_map
      (fun f ->
        List.init trials (fun k ->
            {
              Pindisk_sim.Workload.issued = k;
              file = f.File_spec.id;
              needed = f.File_spec.blocks;
              deadline = File_spec.window f ~bandwidth:design.Shard.bandwidth;
            }))
      files
  in
  let r =
    Multi.run ~design ~tuners
      ~fault:(fun ~channel:_ ~seed -> Pindisk_sim.Fault.bernoulli ~p:loss ~seed)
      ~seed trace
  in
  print_file_table ~header:false r files

let simulate_multichannel ~channels ~tuners ~loss ~trials ~seed ~cohort
    ~clients files =
  let bandwidth = shard_bandwidth files in
  match Shard.design ~channels ~bandwidth files with
  | Error e -> fail "%s" e
  | Ok design ->
      Format.printf
        "channels %d, per-channel bandwidth %d, tuners %d, loss rate %.0f%%@."
        channels bandwidth tuners (100.0 *. loss);
      Format.printf "%a@." Shard.pp design;
      let check = Shardcheck.run design in
      (match Shardcheck.problems check with
      | [] -> Format.printf "shardcheck: ok@."
      | ps -> List.iter (fun p -> Format.printf "shardcheck: %s@." p) ps);
      if cohort then
        simulate_multi_cohort ~design ~tuners ~loss ~seed ~clients files
      else simulate_multi_trials ~design ~tuners ~loss ~trials ~seed files;
      `Ok ()

let simulate_cmd =
  let run files loss trials seed cohort clients channels tuners metrics =
    with_metrics metrics @@ fun () ->
    match collect parse_file files with
    | Error e -> fail "%s" e
    | Ok _ when channels < 1 -> fail "channels must be >= 1"
    | Ok _ when tuners < 1 -> fail "tuners must be >= 1"
    | Ok _ when not (loss >= 0.0 && loss <= 1.0) -> fail "loss must be in [0, 1]"
    | Ok _ when trials < 1 -> fail "trials must be >= 1"
    | Ok _ when clients < 1 -> fail "clients must be >= 1"
    | Ok files when channels > 1 ->
        simulate_multichannel ~channels ~tuners ~loss ~trials ~seed ~cohort
          ~clients files
    | Ok files -> (
        match single_channel files with
        | None -> fail "not schedulable"
        | Some (b, program) ->
            Format.printf "bandwidth %d, period %d, loss rate %.0f%%@." b
              (Program.period program) (100.0 *. loss);
            if cohort then simulate_cohort ~program ~bandwidth:b ~loss ~seed ~clients files
            else
              List.iter
                (fun f ->
                  let summary =
                    Pindisk_sim.Experiment.run ~program ~file:f.File_spec.id
                      ~needed:f.File_spec.blocks
                      ~deadline:(File_spec.window f ~bandwidth:b)
                      ~fault:(fun ~seed -> Pindisk_sim.Fault.bernoulli ~p:loss ~seed)
                      ~trials ~seed
                  in
                  Format.printf "  %-12s %a@." f.File_spec.name
                    Pindisk_sim.Experiment.pp_summary summary)
                files;
            `Ok ())
  in
  let loss =
    Arg.(value & opt float 0.1 & info [ "loss" ] ~doc:"Block loss probability.")
  in
  let trials =
    Arg.(value & opt int 1000 & info [ "trials" ] ~doc:"Clients per file.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let cohort =
    Arg.(
      value & flag
      & info [ "cohort" ]
          ~doc:
            "Simulate a closed-form client population by weighted \
             equivalence classes (analytic fold) instead of per-client \
             trials.")
  in
  let clients =
    Arg.(
      value & opt int 100_000
      & info [ "clients" ] ~doc:"Population size for $(b,--cohort).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Stochastic retrieval simulation")
    Term.(
      ret
        (const (fun () -> run)
        $ setup_logs $ files_arg $ loss $ trials $ seed $ cohort $ clients
        $ channels_arg $ tuners_arg $ metrics_arg))

(* ---------------- chaos ---------------- *)

(* The multi-channel outage drill: shard a canned population over K
   channels, certify it, kill channel 0, evacuate through the ladder's
   Migrate rung, and certify the surviving design (stranded files shed).
   Deterministic end to end. *)
let chaos_channels channels =
  let files =
    List.init 8 (fun i ->
        File_spec.make
          ~name:(Printf.sprintf "f%d" i)
          ~id:i ~blocks:2 ~latency:8
          ~tolerance:(if i < 2 then 2 else 0)
          ())
  in
  match Shard.design ~channels ~bandwidth:1 files with
  | Error e -> fail "%s" e
  | Ok design -> (
      Format.printf "drill: %d files over %d channels@." (List.length files)
        channels;
      Format.printf "%a@." Shard.pp design;
      let before = Shardcheck.run design in
      Format.printf "shardcheck before outage: %s@."
        (if Shardcheck.ok before then "ok" else "VIOLATED");
      let rungs, stranded = Pindisk_adapt.Ladder.evacuate design ~channel:0 in
      Format.printf "channel 0 fails: %d migration(s), %d stranded@."
        (List.length rungs) (List.length stranded);
      List.iter
        (fun r -> Format.printf "  %a@." Pindisk_adapt.Ladder.pp_rung r)
        rungs;
      let survivors =
        List.filter
          (fun (f : File_spec.t) ->
            (not (List.mem f.File_spec.id stranded))
            && List.exists
                 (fun (p : Shard.placement) -> p.Shard.file = f.File_spec.id)
                 design.Shard.placements)
          files
      in
      match Shard.design ~channels:(channels - 1) ~bandwidth:1 survivors with
      | Error e -> fail "re-design failed: %s" e
      | Ok recovered ->
          let after = Shardcheck.run recovered in
          Format.printf
            "recovered design: %d channel(s), %d file(s) served, %d shed@."
            (channels - 1)
            (List.length recovered.Shard.specs)
            (List.length recovered.Shard.shed);
          if Shardcheck.ok before && Shardcheck.ok after then begin
            Format.printf "drill: recovery certified@.";
            `Ok ()
          end
          else fail "drill: recovered design fails certification")

let chaos_cmd =
  let module Scenario = Pindisk_store.Scenario in
  let summary_line r =
    let open Scenario in
    Printf.sprintf "| %s | %s | %d | %d | %d | %d | %s |" r.spec.name
      (if Scenario.ok r then "ok" else "VIOLATED")
      r.crashes r.down r.faulted r.replayed
      (match r.recovery_slots with
      | [] -> "-"
      | l -> String.concat ", " (List.map string_of_int l))
  in
  let summary_text reports =
    let b = Buffer.create 1024 in
    Buffer.add_string b "# Chaos scenario suite\n\n";
    Buffer.add_string b
      "| scenario | verdict | crashes | down slots | faulted slots | \
       replayed slots | recovery (slots) |\n";
    Buffer.add_string b "|---|---|---|---|---|---|---|\n";
    List.iter (fun r -> Buffer.add_string b (summary_line r ^ "\n")) reports;
    let violations =
      List.concat_map (fun r -> r.Scenario.violations) reports
    in
    if violations <> [] then begin
      Buffer.add_string b "\n## Violations\n\n";
      List.iter (fun v -> Buffer.add_string b ("- " ^ v ^ "\n")) violations
    end;
    Buffer.contents b
  in
  let run list only summary channels metrics =
    with_metrics metrics @@ fun () ->
    if channels > 1 then chaos_channels channels
    else if list then begin
      List.iter
        (fun s -> Format.printf "%s@." s.Scenario.name)
        (Scenario.suite ());
      `Ok ()
    end
    else
      let specs =
        match only with
        | None -> Scenario.suite ()
        | Some name ->
            List.filter
              (fun s -> s.Scenario.name = name)
              (Scenario.suite ())
      in
      if specs = [] then fail "no such scenario"
      else begin
        let reports = List.map Scenario.run specs in
        List.iter (fun r -> Format.printf "%a@." Scenario.pp_report r) reports;
        let verdict () =
          if List.for_all Scenario.ok reports then begin
            Format.printf "chaos: %d scenario(s), 0 invariant violations@."
              (List.length reports);
            `Ok ()
          end
          else fail "chaos: invariant violations detected"
        in
        match summary with
        | Some path -> write_file path (summary_text reports) verdict
        | None -> verdict ()
      end
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List scenario names and exit.")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Run a single scenario.")
  in
  let summary =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:"Write a markdown recovery summary to $(docv).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Scripted fault-injection scenarios with recovery invariants")
    Term.(
      ret (const (fun () -> run) $ setup_logs $ list $ only $ summary
           $ channels_arg $ metrics_arg))

let () =
  let info =
    Cmd.info "pindisk" ~version:"1.0.0"
      ~doc:"Pinwheel scheduling for fault-tolerant broadcast disks"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            schedule_cmd;
            sched_bench_cmd;
            bandwidth_cmd;
            program_cmd;
            convert_cmd;
            simulate_cmd;
            adapt_cmd;
            stats_cmd;
            analyze_cmd;
            export_cmd;
            inspect_cmd;
            design_cmd;
            audit_cmd;
            serve_cmd;
            receive_cmd;
            chaos_cmd;
          ]))
