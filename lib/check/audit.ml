module Q = Pindisk_util.Q
module Trace = Pindisk_algebra.Trace
module Bc = Pindisk_algebra.Bc
module Verify = Pindisk_pinwheel.Verify
module Density = Pindisk_pinwheel.Density
module Program = Pindisk.Program
module Designer = Pindisk.Designer
module Generalized = Pindisk.Generalized

type band = Sa_guarantee | Kawamura | Above_five_sixths | Above_one

let band_of_density d =
  match Density.of_density d with
  | Density.Guaranteed _ -> Sa_guarantee
  | Density.Exists _ -> Kawamura
  | Density.Unknown -> Above_five_sixths
  | Density.Infeasible _ -> Above_one

let band_name = function
  | Sa_guarantee -> "sa-guarantee"
  | Kawamura -> "kawamura"
  | Above_five_sixths -> "above-five-sixths"
  | Above_one -> "above-one"

type level_report = {
  level : int;
  window : int;
  required : int;
  observed : int;
}

type file_report = {
  file : int;
  name : string;
  m : int;
  tolerance : int;
  capacity : int;
  levels : level_report list;
  mds : (Mds.outcome, string) result;
}

type t = {
  kind : string;
  period : int;
  density : Q.t;
  band : band;
  files : file_report list;
  traces : Trace.t list;
  trace_result : (unit, int * Kernel.reject) result;
}

(* Worst-case occurrence count per fault level, straight off the broadcast
   period via the shared prefix-sum primitive. *)
let count_levels sched ~file ~m ~d =
  List.mapi
    (fun level window ->
      {
        level;
        window;
        required = m + level;
        observed =
          Array.fold_left min max_int
            (Verify.window_counts sched ~task:file ~window);
      })
    (Array.to_list d)

let audit_designer ~byte_rate reqs =
  match Designer.plan ~byte_rate reqs with
  | Error e -> Error (Printf.sprintf "design infeasible: %s" e)
  | Ok plan ->
      let sched = Program.schedule plan.Designer.program in
      let files, traces =
        List.map
          (fun (fp : Designer.file_plan) ->
            let s = fp.Designer.spec in
            let d =
              Array.make (s.Pindisk.File_spec.tolerance + 1) fp.Designer.window
            in
            let report =
              {
                file = s.Pindisk.File_spec.id;
                name = s.Pindisk.File_spec.name;
                m = s.Pindisk.File_spec.blocks;
                tolerance = s.Pindisk.File_spec.tolerance;
                capacity = s.Pindisk.File_spec.capacity;
                levels =
                  count_levels sched ~file:s.Pindisk.File_spec.id
                    ~m:s.Pindisk.File_spec.blocks ~d;
                mds =
                  Mds.check s.Pindisk.File_spec.capacity
                    ~m:s.Pindisk.File_spec.blocks;
              }
            in
            let trace =
              Trace.reduction ~file:s.Pindisk.File_spec.id
                ~m:s.Pindisk.File_spec.blocks
                ~tolerance:s.Pindisk.File_spec.tolerance
                ~window:fp.Designer.window
            in
            (report, trace))
          plan.Designer.files
        |> List.split
      in
      (* The density of the scheduled system {(i, m + r, B·T)} — its
         demand over the slot rate — not the program's busy fraction. *)
      let specs = List.map (fun fp -> fp.Designer.spec) plan.Designer.files in
      let density =
        Q.div (Pindisk.Bandwidth.demand specs) (Q.of_int plan.Designer.bandwidth)
      in
      Ok
        {
          kind = "designer";
          period = Program.period plan.Designer.program;
          density;
          band = band_of_density density;
          files;
          traces;
          trace_result = Kernel.validate_all traces;
        }

let audit_generalized specs =
  match Generalized.program_certified specs with
  | None -> Error "the pipeline could not place the nice system"
  | Some (program, traces) ->
      let sched = Program.schedule program in
      let files =
        List.map
          (fun (s : Generalized.spec) ->
            let bc = s.Generalized.bc in
            {
              file = bc.Bc.file;
              name = Printf.sprintf "F%d" bc.Bc.file;
              m = bc.Bc.m;
              tolerance = Bc.faults_tolerated bc;
              capacity = s.Generalized.capacity;
              levels = count_levels sched ~file:bc.Bc.file ~m:bc.Bc.m ~d:bc.Bc.d;
              mds = Mds.check s.Generalized.capacity ~m:bc.Bc.m;
            })
          specs
      in
      (* Density of what the scheduler was actually asked to place: the
         emitted nice conjuncts. *)
      let density = Q.sum (List.map Trace.density traces) in
      Ok
        {
          kind = "generalized";
          period = Program.period program;
          density;
          band = band_of_density density;
          files;
          traces;
          trace_result = Kernel.validate_all traces;
        }

let run = function
  | Spec.Designer { byte_rate; reqs } -> audit_designer ~byte_rate reqs
  | Spec.Generalized specs -> audit_generalized specs

let problems t =
  let level_problems =
    List.concat_map
      (fun f ->
        List.filter_map
          (fun l ->
            if l.observed >= l.required then None
            else
              Some
                (Printf.sprintf
                   "%s: fault level %d needs %d of every %d slots, worst \
                    window has %d"
                   f.name l.level l.required l.window l.observed))
          f.levels)
      t.files
  in
  let mds_problems =
    List.filter_map
      (fun f ->
        match f.mds with
        | Ok (Mds.Exhaustive _ | Mds.Structural) -> None
        | Ok (Mds.Failed rows) ->
            Some
              (Format.asprintf "%s: dispersal is not MDS (%a)" f.name
                 Mds.pp_outcome (Mds.Failed rows))
        | Error e -> Some (Printf.sprintf "%s: MDS check failed: %s" f.name e))
      t.files
  in
  let trace_problems =
    match t.trace_result with
    | Ok () -> []
    | Error (i, r) ->
        [ Format.asprintf "trace %d rejected by the kernel: %a" i
            Kernel.pp_reject r ]
  in
  let density_problems =
    if t.band = Above_one then
      [ Format.asprintf "density %a exceeds one" Q.pp t.density ]
    else []
  in
  level_problems @ mds_problems @ trace_problems @ density_problems

let warnings t =
  if t.band = Kawamura then
    [
      Format.asprintf
        "density %a lies in (1/2, 5/6]: a schedule exists (Kawamura), but \
         the planner guarantees one only up to 1/2"
        Q.pp t.density;
    ]
  else []

let ok t = problems t = []

let q_to_json (q : Q.t) = Json.Obj [ ("num", Int q.Q.num); ("den", Int q.Q.den) ]

let mds_to_json = function
  | Ok (Mds.Exhaustive k) ->
      Json.Obj [ ("mode", Str "exhaustive"); ("subsets", Int k); ("ok", Bool true) ]
  | Ok Mds.Structural ->
      Json.Obj [ ("mode", Str "structural"); ("ok", Bool true) ]
  | Ok (Mds.Failed rows) ->
      Json.Obj
        [
          ("mode", Str "exhaustive");
          ("ok", Bool false);
          ( "singular_rows",
            List (Array.to_list (Array.map (fun r -> Json.Int r) rows)) );
        ]
  | Error e -> Json.Obj [ ("mode", Str "error"); ("ok", Bool false); ("reason", Str e) ]

let level_to_json l =
  Json.Obj
    [
      ("level", Int l.level);
      ("window", Int l.window);
      ("required", Int l.required);
      ("observed", Int l.observed);
      ("ok", Bool (l.observed >= l.required));
    ]

let file_to_json f =
  Json.Obj
    [
      ("file", Int f.file);
      ("name", Str f.name);
      ("m", Int f.m);
      ("tolerance", Int f.tolerance);
      ("capacity", Int f.capacity);
      ("levels", List (List.map level_to_json f.levels));
      ("mds", mds_to_json f.mds);
    ]

let to_json t =
  Json.Obj
    [
      ("kind", Str t.kind);
      ("ok", Bool (ok t));
      ("period", Int t.period);
      ("density", q_to_json t.density);
      ("band", Str (band_name t.band));
      ("files", List (List.map file_to_json t.files));
      ( "trace_validation",
        match t.trace_result with
        | Ok () ->
            Json.Obj
              [
                ("accepted", Bool true);
                ("traces", Int (List.length t.traces));
                ( "steps",
                  Int
                    (List.fold_left
                       (fun acc tr -> acc + Trace.step_count tr)
                       0 t.traces) );
              ]
        | Error (i, r) ->
            Json.Obj
              [
                ("accepted", Bool false);
                ("trace", Int i);
                ( "step",
                  match r.Kernel.step with Some s -> Int s | None -> Null );
                ("reason", Str r.Kernel.reason);
              ] );
      ("traces", List (List.map Witness.trace_to_json t.traces));
      ("problems", List (List.map (fun p -> Json.Str p) (problems t)));
      ("warnings", List (List.map (fun w -> Json.Str w) (warnings t)));
    ]
