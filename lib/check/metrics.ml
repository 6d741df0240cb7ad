(* Observability snapshots as JSON. Lives here (not in [lib/obs]) so the
   obs layer stays dependency-free and snapshots ride the same
   hand-rolled JSON tree as every other machine-readable artifact; the
   derived fields (mean, quantile estimates) are recomputed from the
   carried data on re-serialization, so print -> parse -> print is
   byte-stable. *)

module Obs = Pindisk_obs

let schema = "pindisk-metrics v1"
let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* to JSON                                                             *)
(* ------------------------------------------------------------------ *)

let span_fields : Obs.Trace.span -> (string * Json.t) list = function
  | Obs.Trace.Slot { slot; file; index } ->
      [
        ("span", Json.Str "slot");
        ("slot", Json.Int slot);
        ("file", Json.Int file);
        ("index", Json.Int index);
      ]
  | Obs.Trace.Fault_burst { slot; length } ->
      [
        ("span", Json.Str "fault_burst");
        ("slot", Json.Int slot);
        ("length", Json.Int length);
      ]
  | Obs.Trace.Reconstruct { file; pieces; bytes } ->
      [
        ("span", Json.Str "reconstruct");
        ("file", Json.Int file);
        ("pieces", Json.Int pieces);
        ("bytes", Json.Int bytes);
      ]
  | Obs.Trace.Hot_swap { slot; cause } ->
      [
        ("span", Json.Str "hot_swap");
        ("slot", Json.Int slot);
        ("cause", Json.Str cause);
      ]
  | Obs.Trace.Crash { slot } ->
      [ ("span", Json.Str "crash"); ("slot", Json.Int slot) ]
  | Obs.Trace.Recover { slot; replayed } ->
      [
        ("span", Json.Str "recover");
        ("slot", Json.Int slot);
        ("replayed", Json.Int replayed);
      ]

let event_to_json (e : Obs.Trace.event) =
  Json.Obj (("tick", Json.Int e.tick) :: span_fields e.span)

let hist_to_json (h : Obs.Snapshot.hist) =
  let quant p =
    if h.Obs.Snapshot.count = 0 then Json.Null
    else Json.Int (Obs.Snapshot.quantile h p)
  in
  Json.Obj
    [
      ("count", Json.Int h.Obs.Snapshot.count);
      ("sum", Json.Int h.Obs.Snapshot.sum);
      ("min", Json.Int h.Obs.Snapshot.lo);
      ("max", Json.Int h.Obs.Snapshot.hi);
      ("mean", Json.Float (Obs.Snapshot.mean h));
      ("p50", quant 0.5);
      ("p90", quant 0.9);
      ("p99", quant 0.99);
      ( "buckets",
        Json.List
          (List.map
             (fun (b, n) -> Json.List [ Json.Int b; Json.Int n ])
             h.Obs.Snapshot.buckets) );
    ]

let snapshot_to_json (s : Obs.Snapshot.t) =
  let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs) in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("tick", Json.Int s.Obs.Snapshot.tick);
      ("counters", ints s.Obs.Snapshot.counters);
      ("gauges", ints s.Obs.Snapshot.gauges);
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, h) -> (k, hist_to_json h))
             s.Obs.Snapshot.histograms) );
      ("events", Json.List (List.map event_to_json s.Obs.Snapshot.events));
    ]

(* ------------------------------------------------------------------ *)
(* from JSON                                                           *)
(* ------------------------------------------------------------------ *)

let field k j =
  match Json.member k j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" k)

let obj_fields = function
  | Json.Obj fields -> Ok fields
  | _ -> Error "expected an object"

let int_assoc k j =
  let* sub = field k j in
  let* fields = obj_fields sub in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (name, v) :: rest -> (
        match Json.to_int v with
        | Ok i -> go ((name, i) :: acc) rest
        | Error e -> Error (Printf.sprintf "%s.%s: %s" k name e))
  in
  go [] fields

let bucket_of_json = function
  | Json.List [ Json.Int b; Json.Int n ] -> Ok (b, n)
  | _ -> Error "expected a [bucket, count] pair"

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
      let* v = f x in
      let* vs = collect f rest in
      Ok (v :: vs)

let hist_of_json j : (Obs.Snapshot.hist, string) result =
  let* count = Json.get_int "count" j in
  let* sum = Json.get_int "sum" j in
  let* lo = Json.get_int "min" j in
  let* hi = Json.get_int "max" j in
  let* bucket_list = Json.get_list "buckets" j in
  let* buckets = collect bucket_of_json bucket_list in
  Ok { Obs.Snapshot.count; sum; lo; hi; buckets }

let span_of_json j =
  let* kind = Json.get_str "span" j in
  match kind with
  | "slot" ->
      let* slot = Json.get_int "slot" j in
      let* file = Json.get_int "file" j in
      let* index = Json.get_int "index" j in
      Ok (Obs.Trace.Slot { slot; file; index })
  | "fault_burst" ->
      let* slot = Json.get_int "slot" j in
      let* length = Json.get_int "length" j in
      Ok (Obs.Trace.Fault_burst { slot; length })
  | "reconstruct" ->
      let* file = Json.get_int "file" j in
      let* pieces = Json.get_int "pieces" j in
      let* bytes = Json.get_int "bytes" j in
      Ok (Obs.Trace.Reconstruct { file; pieces; bytes })
  | "hot_swap" ->
      let* slot = Json.get_int "slot" j in
      let* cause = Json.get_str "cause" j in
      Ok (Obs.Trace.Hot_swap { slot; cause })
  | "crash" ->
      let* slot = Json.get_int "slot" j in
      Ok (Obs.Trace.Crash { slot })
  | "recover" ->
      let* slot = Json.get_int "slot" j in
      let* replayed = Json.get_int "replayed" j in
      Ok (Obs.Trace.Recover { slot; replayed })
  | other -> Error (Printf.sprintf "unknown span kind %S" other)

let event_of_json j =
  let* tick = Json.get_int "tick" j in
  let* span = span_of_json j in
  Ok { Obs.Trace.tick; span }

let snapshot_of_json j : (Obs.Snapshot.t, string) result =
  let* got = Json.get_str "schema" j in
  if got <> schema then
    Error (Printf.sprintf "unsupported schema %S (want %S)" got schema)
  else
    let* tick = Json.get_int "tick" j in
    let* counters = int_assoc "counters" j in
    let* gauges = int_assoc "gauges" j in
    let* hist_field = field "histograms" j in
    let* hist_fields = obj_fields hist_field in
    let* histograms =
      collect
        (fun (k, v) ->
          match hist_of_json v with
          | Ok h -> Ok (k, h)
          | Error e -> Error (Printf.sprintf "histogram %S: %s" k e))
        hist_fields
    in
    let* event_list = Json.get_list "events" j in
    let* events = collect event_of_json event_list in
    Ok { Obs.Snapshot.tick; counters; gauges; histograms; events }

let snapshot_of_string s =
  let* j = Json.of_string s in
  snapshot_of_json j
