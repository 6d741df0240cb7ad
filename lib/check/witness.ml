module Trace = Pindisk_algebra.Trace

let cond_to_json (c : Trace.cond) = Json.Obj [ ("a", Int c.a); ("b", Int c.b) ]

let source_to_json = function
  | Trace.Emitted k -> Json.Obj [ ("kind", Str "emitted"); ("index", Int k) ]
  | Trace.Derived k -> Json.Obj [ ("kind", Str "derived"); ("index", Int k) ]

let step_to_json = function
  | Trace.Implies { premise; scale; target } ->
      Json.Obj
        [
          ("rule", Str "implies");
          ("premise", source_to_json premise);
          ("scale", Int scale);
          ("target", cond_to_json target);
        ]
  | Trace.Conjoin { base; guaranteed; scale; alias; target } ->
      Json.Obj
        [
          ("rule", Str "conjoin");
          ("base", source_to_json base);
          ("guaranteed", Int guaranteed);
          ("scale", Int scale);
          ("alias", source_to_json alias);
          ("target", cond_to_json target);
        ]
  | Trace.Align { base; scale; alias; target } ->
      Json.Obj
        [
          ("rule", Str "align");
          ("base", source_to_json base);
          ("scale", Int scale);
          ("alias", source_to_json alias);
          ("target", cond_to_json target);
        ]

let trace_to_json (t : Trace.t) =
  Json.Obj
    [
      ("file", Int t.file);
      ("m", Int t.m);
      ("d", List (Array.to_list (Array.map (fun x -> Json.Int x) t.d)));
      ("transform", Str t.transform);
      ("nice", List (List.map cond_to_json t.nice));
      ("steps", List (List.map step_to_json t.steps));
    ]
