(* The certified-pipeline auditor: trusted kernel, witnesses, MDS checks,
   spec parsing and whole-design audits. *)

module A = Pindisk_algebra
module Bc = A.Bc
module Rules = A.Rules
module Convert = A.Convert
module Trace = A.Trace
module P = Pindisk_pinwheel
module Task = P.Task
module Schedule = P.Schedule
module Verify = P.Verify
module Analysis = P.Analysis
module C = Pindisk_check
module Kernel = C.Kernel
module Json = C.Json
module Witness = C.Witness
module Mds = C.Mds
module Spec = C.Spec
module Audit = C.Audit
module Matrix = Pindisk_gf256.Matrix
module Q = Pindisk_util.Q

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let accepted name trace =
  match Kernel.validate trace with
  | Ok () -> ()
  | Error r -> Alcotest.failf "%s: %a" name Kernel.pp_reject r

let rejected_at name step trace =
  match Kernel.validate trace with
  | Ok () -> Alcotest.failf "%s: expected rejection" name
  | Error r -> Alcotest.(check (option int)) name step r.Kernel.step

let paper_bcs =
  [
    Bc.make ~file:0 ~m:5 ~d:[ 100; 105; 110; 115; 120 ];
    Bc.make ~file:1 ~m:4 ~d:[ 8; 9 ];
    Bc.make ~file:2 ~m:2 ~d:[ 20; 24; 30 ];
    Bc.make ~file:3 ~m:1 ~d:[ 6; 9 ];
    Bc.make ~file:4 ~m:6 ~d:[ 60; 66 ];
    Bc.make ~file:5 ~m:2 ~d:[ 5; 7 ];
  ]

(* ------------------------------------------------------------------ *)
(* kernel: acceptance                                                  *)
(* ------------------------------------------------------------------ *)

let test_kernel_accepts_producers () =
  List.iter
    (fun bc ->
      let _, tr = Convert.tr1_certified bc in
      accepted "tr1" tr;
      let _, tr = Convert.tr2_certified bc in
      accepted "tr2" tr;
      let _, tr = Convert.best_single_certified bc in
      accepted "single" tr;
      let _, _, tr = Convert.best_certified bc in
      accepted "best" tr)
    paper_bcs

let test_kernel_accepts_reduction () =
  accepted "reduction"
    (Trace.reduction ~file:0 ~m:3 ~tolerance:2 ~window:24);
  accepted "no faults" (Trace.reduction ~file:1 ~m:1 ~tolerance:0 ~window:4)

let test_certified_matches_uncertified () =
  (* The certified producers must not change what gets emitted. *)
  List.iter
    (fun bc ->
      let label, nice = Convert.best bc in
      let label', nice', _ = Convert.best_certified bc in
      Alcotest.(check string) "label" label label';
      check_bool "nice" true (nice = nice'))
    paper_bcs

(* ------------------------------------------------------------------ *)
(* kernel: rejection                                                   *)
(* ------------------------------------------------------------------ *)

let tr2_trace =
  (* Example 2's walk produces derived references and conjunction steps. *)
  snd (Convert.tr2_certified (List.nth paper_bcs 0))

let remake ?file ?m ?d ?nice ?steps (t : Trace.t) =
  Trace.make
    ~file:(Option.value file ~default:t.Trace.file)
    ~m:(Option.value m ~default:t.Trace.m)
    ~d:(Option.value d ~default:t.Trace.d)
    ~transform:t.Trace.transform
    ~nice:(Option.value nice ~default:t.Trace.nice)
    ~steps:(Option.value steps ~default:t.Trace.steps)

let test_kernel_rejects_reordering () =
  (* Swapping two steps breaks the derived-reference discipline. *)
  match tr2_trace.Trace.steps with
  | s0 :: s1 :: rest ->
      rejected_at "swapped steps" (Some 0)
        (remake ~steps:(s1 :: s0 :: rest) tr2_trace)
  | _ -> Alcotest.fail "tr2 trace unexpectedly short"

let test_kernel_rejects_truncation () =
  (* Dropping the steps leaves fault levels uncovered (a whole-trace
     fault: step = None). *)
  rejected_at "no steps" None (remake ~steps:[] tr2_trace)

let test_kernel_rejects_bad_scale () =
  let tr = Trace.reduction ~file:0 ~m:2 ~tolerance:1 ~window:10 in
  let steps =
    List.mapi
      (fun i s ->
        match (i, s) with
        | 1, Trace.Implies { premise; scale = _; target } ->
            Trace.Implies { premise; scale = 0; target }
        | _ -> s)
      tr.Trace.steps
  in
  rejected_at "zero scale" (Some 1) (remake ~steps tr)

let test_kernel_rejects_support_overlap () =
  (* pc(1,4) twice would cover pc(2,4) — but only as *distinct*
     pseudo-tasks. Referencing the same emitted entry twice must fail. *)
  let c = { Trace.a = 1; b = 4 } in
  let t =
    Trace.make ~file:0 ~m:2 ~d:[| 4 |] ~transform:"handmade" ~nice:[ c ]
      ~steps:
        [
          Trace.Conjoin
            {
              base = Trace.Emitted 0;
              guaranteed = 1;
              scale = 1;
              alias = Trace.Emitted 0;
              target = { Trace.a = 2; b = 4 };
            };
        ]
  in
  rejected_at "self-conjunction" (Some 0) t;
  (* The same argument with two distinct entries is fine. *)
  accepted "distinct entries"
    (Trace.make ~file:0 ~m:2 ~d:[| 4 |] ~transform:"handmade" ~nice:[ c; c ]
       ~steps:
         [
           Trace.Conjoin
             {
               base = Trace.Emitted 0;
               guaranteed = 1;
               scale = 1;
               alias = Trace.Emitted 1;
               target = { Trace.a = 2; b = 4 };
             };
         ])

let test_kernel_rejects_forward_reference () =
  let tr = Trace.reduction ~file:0 ~m:2 ~tolerance:1 ~window:10 in
  let steps =
    List.mapi
      (fun i s ->
        match (i, s) with
        | 0, Trace.Implies { premise = _; scale; target } ->
            Trace.Implies { premise = Trace.Derived 1; scale; target }
        | _ -> s)
      tr.Trace.steps
  in
  rejected_at "forward reference" (Some 0) (remake ~steps tr)

let test_kernel_rejects_uncovered_level () =
  (* Claim an extra fault level the steps never establish. *)
  let tr = Trace.reduction ~file:0 ~m:2 ~tolerance:1 ~window:10 in
  rejected_at "extra level" None (remake ~d:[| 10; 10; 10 |] tr)

let test_kernel_rejects_overflow_bait () =
  (* Gigantic witnesses must be rejected, not overflow into acceptance. *)
  let big = max_int / 2 in
  let t =
    Trace.make ~file:0 ~m:1 ~d:[| 4 |] ~transform:"handmade"
      ~nice:[ { Trace.a = 1; b = 4 } ]
      ~steps:
        [
          Trace.Implies
            {
              premise = Trace.Emitted 0;
              scale = big;
              target = { Trace.a = 1; b = 4 };
            };
        ]
  in
  rejected_at "huge scale" (Some 0) t;
  rejected_at "huge window" None (remake ~d:[| big |] t)

(* qcheck: any single-field mutation of a valid trace is rejected, and the
   rejection pinpoints the mutated step. *)

let gen_bc =
  QCheck2.Gen.(
    let* file = int_range 0 3 in
    let* m = int_range 1 4 in
    let* r = int_range 0 3 in
    let* slack0 = int_range 1 24 in
    let* increments = list_size (return r) (int_range 0 6) in
    let d0 = (m * (slack0 + 1)) + (m / 2) in
    let rec build prev j = function
      | [] -> []
      | inc :: rest ->
          let dj = max (prev + inc) (m + j) in
          dj :: build dj (j + 1) rest
    in
    return (Bc.make ~file ~m ~d:(d0 :: build d0 1 increments)))

let prop_producer_traces_validate =
  QCheck2.Test.make ~name:"kernel accepts every producer trace" ~count:200
    gen_bc (fun bc ->
      List.for_all
        (fun tr -> Kernel.validate tr = Ok ())
        [
          snd (Convert.tr1_certified bc);
          snd (Convert.tr2_certified bc);
          snd (Convert.best_single_certified bc);
        ])

(* Mutations guaranteed to invalidate the step they touch. *)
let mutate_step k trace =
  let break_source = function
    | Trace.Emitted _ | Trace.Derived _ ->
        Trace.Derived (List.length trace.Trace.steps)
  in
  let steps =
    List.mapi
      (fun i s ->
        if i <> k then s
        else
          match s with
          | Trace.Implies { premise; scale; target } ->
              Trace.Implies { premise = break_source premise; scale; target }
          | Trace.Conjoin { base; guaranteed; scale; alias; target } ->
              Trace.Conjoin
                { base; guaranteed; scale; alias = break_source alias; target }
          | Trace.Align { base; scale; alias; target } ->
              Trace.Align { base = break_source base; scale; alias; target })
      trace.Trace.steps
  in
  remake ~steps trace

let mutate_target k trace =
  let steps =
    List.mapi
      (fun i s ->
        if i <> k then s
        else
          let bend (c : Trace.cond) = { c with Trace.a = c.Trace.b + 1 } in
          match s with
          | Trace.Implies { premise; scale; target } ->
              Trace.Implies { premise; scale; target = bend target }
          | Trace.Conjoin { base; guaranteed; scale; alias; target } ->
              Trace.Conjoin
                { base; guaranteed; scale; alias; target = bend target }
          | Trace.Align { base; scale; alias; target } ->
              Trace.Align { base; scale; alias; target = bend target })
      trace.Trace.steps
  in
  remake ~steps trace

let gen_mutation =
  QCheck2.Gen.(
    let* bc = gen_bc in
    let* pick = int_range 0 2 in
    let trace =
      match pick with
      | 0 -> snd (Convert.tr1_certified bc)
      | 1 -> snd (Convert.tr2_certified bc)
      | _ -> snd (Convert.best_single_certified bc)
    in
    let* k = int_range 0 (List.length trace.Trace.steps - 1) in
    let* which = bool in
    return (trace, k, which))

let prop_mutation_rejected =
  QCheck2.Test.make
    ~name:"one-field step mutations are rejected at the mutated step"
    ~count:300 gen_mutation (fun (trace, k, which) ->
      let mutated = if which then mutate_step k trace else mutate_target k trace in
      match Kernel.validate mutated with
      | Ok () -> false
      | Error r -> r.Kernel.step = Some k)

let test_json_parser () =
  let ok s = match Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted %s" s
    | Error _ -> ()
  in
  check_bool "nested" true
    (ok {| {"a": [1, -2, {"b": "x\n\"y"}], "c": null} |}
    = Json.Obj
        [
          ( "a",
            List [ Int 1; Int (-2); Obj [ ("b", Str "x\n\"y") ] ] );
          ("c", Null);
        ]);
  check_bool "float literal" true (ok "1.5" = Json.Float 1.5);
  check_bool "exponent literal" true (ok "2e3" = Json.Float 2000.0);
  check_bool "plain int stays exact" true (ok "7" = Json.Int 7);
  bad "1.";
  bad "1e";
  bad "1e999" (* overflows to infinity *);
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "\"unterminated";
  (* printer/parser round trip on every shape at once *)
  let v =
    Json.Obj
      [
        ("i", Int 42);
        ("s", Str "with \"quotes\" and \\ and \t tab");
        ("l", List [ Bool true; Bool false; Null; List []; Obj [] ]);
      ]
  in
  check_bool "pretty round trip" true (Json.of_string (Json.to_string v) = Ok v);
  check_bool "minified round trip" true
    (Json.of_string (Json.to_string ~minify:true v) = Ok v)

(* NaN and infinities have no JSON form: the printer refuses rather than
   emitting something the parser (rightly) rejects. *)
let test_json_float_rejects_non_finite () =
  List.iter
    (fun f ->
      match Json.to_string (Json.Float f) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "rendered a non-finite float as %s" s)
    [ Float.nan; Float.infinity; Float.neg_infinity; -.Float.nan ]

(* Arbitrary bit patterns: finite floats round-trip to the identical
   bits (the emitter picks the shortest lossless decimal); NaN/inf are
   rejected at print time. *)
let prop_json_float_roundtrip =
  QCheck2.Test.make ~name:"float emitter is lossless, rejects non-finite"
    ~count:1000
    QCheck2.Gen.(
      oneof
        [
          float;
          map Int64.float_of_bits int64;
          oneofl
            [ 0.0; -0.0; 1.0 /. 3.0; max_float; min_float; 4e-324; -1.5e300 ];
        ])
    (fun f ->
      if not (Float.is_finite f) then
        match Json.to_string (Json.Float f) with
        | exception Invalid_argument _ -> true
        | _ -> false
      else
        match Json.of_string (Json.to_string (Json.Float f)) with
        | Ok (Json.Float g) -> Int64.bits_of_float g = Int64.bits_of_float f
        | _ -> false)

(* Escape correctness over the full byte range, both renderings. *)
let prop_json_string_roundtrip =
  QCheck2.Test.make ~name:"string escape round trip" ~count:1000
    QCheck2.Gen.(string_size (int_range 0 60))
    (fun s ->
      Json.of_string (Json.to_string (Json.Str s)) = Ok (Json.Str s)
      && Json.of_string (Json.to_string ~minify:true (Json.Str s))
         = Ok (Json.Str s))

(* ------------------------------------------------------------------ *)
(* mds                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mds_exhaustive () =
  (match Mds.check 5 ~m:3 with
  | Ok (Mds.Exhaustive 10) -> ()
  | other ->
      Alcotest.failf "expected Exhaustive 10, got %s"
        (match other with
        | Ok o -> Format.asprintf "%a" Mds.pp_outcome o
        | Error e -> e));
  check_bool "m = n" true (Mds.check 4 ~m:4 = Ok (Mds.Exhaustive 1));
  check_bool "bad dims" true (Result.is_error (Mds.check 2 ~m:3))

let test_mds_structural () =
  (* C(60, 30) is astronomically over budget: structural path. *)
  check_bool "structural" true (Mds.check 60 ~m:30 = Ok Mds.Structural)

let test_mds_detects_singular () =
  (* Duplicate rows are as non-MDS as it gets. *)
  let dup = Matrix.create ~rows:3 ~cols:2 (fun i j -> if i = 2 then Matrix.get (Matrix.vandermonde ~rows:3 ~cols:2) 0 j else Matrix.get (Matrix.vandermonde ~rows:3 ~cols:2) i j) in
  match Mds.check_matrix dup ~m:2 with
  | Ok (Mds.Failed rows) ->
      Alcotest.(check (array int)) "rows 0 and 2" [| 0; 2 |] rows
  | other ->
      Alcotest.failf "expected failure, got %s"
        (match other with
        | Ok o -> Format.asprintf "%a" Mds.pp_outcome o
        | Error e -> e)

(* ------------------------------------------------------------------ *)
(* rules satellite: binary-search max_guaranteed                       *)
(* ------------------------------------------------------------------ *)

let prop_max_guaranteed_matches_linear =
  QCheck2.Gen.(
    let gen =
      let* a = int_range 1 30 in
      let* b = int_range a 40 in
      let* window = int_range 1 120 in
      return (a, b, window)
    in
    QCheck2.Test.make ~name:"max_guaranteed = linear reference" ~count:500 gen
      (fun (a, b, window) ->
        let got = Task.make ~id:0 ~a ~b in
        let reference =
          let rec down k =
            if k = 0 then 0
            else if Rules.implies got (Task.make ~id:0 ~a:k ~b:window) then k
            else down (k - 1)
          in
          down window
        in
        Rules.max_guaranteed got ~window = reference))

let test_implies_scale_witness () =
  (* The recorded witness satisfies exactly the inequalities the kernel
     re-checks. *)
  List.iter
    (fun ((a, b), (c, e)) ->
      let got = Task.make ~id:0 ~a ~b and want = Task.make ~id:0 ~a:c ~b:e in
      match Rules.implies_scale got want with
      | Some n ->
          check_bool "n >= 1" true (n >= 1);
          check_bool "count" true (n * a >= c);
          check_bool "slack" true (n * (b - a) <= e - c)
      | None -> check_bool "implies agrees" false (Rules.implies got want))
    [ ((1, 3), (2, 8)); ((2, 5), (3, 9)); ((1, 2), (3, 5)); ((3, 7), (5, 9)) ]

(* ------------------------------------------------------------------ *)
(* verify satellite: window_counts                                     *)
(* ------------------------------------------------------------------ *)

let test_window_counts () =
  let s = Schedule.make [| 0; 1; 0; Schedule.idle |] in
  Alcotest.(check (array int))
    "window 2 counts" [| 1; 1; 1; 1 |]
    (Verify.window_counts s ~task:0 ~window:2);
  Alcotest.(check (array int))
    "window 5 counts (exceeds period)" [| 3; 2; 3; 2 |]
    (Verify.window_counts s ~task:0 ~window:5);
  (* check_pc must agree with the shared primitive. *)
  List.iter
    (fun window ->
      let counts = Verify.window_counts s ~task:0 ~window in
      let min_count = Array.fold_left min max_int counts in
      check_bool
        (Printf.sprintf "check_pc for window %d" window)
        (min_count >= 1)
        (Verify.check_pc s ~task:0 ~a:1 ~b:window = None))
    [ 1; 2; 3; 4; 7; 9 ]

(* ------------------------------------------------------------------ *)
(* spec parsing                                                        *)
(* ------------------------------------------------------------------ *)

let designer_text =
  "pindisk-design v1\n\
   # comment\n\
   rate 4096\n\
   require incidents 1800 3 2\n\
   require guidance 5000 12 1\n\
   require map-tile 24000 45\n"

let generalized_text =
  "pindisk-design v1\nbc 2 20,24,30\nbc 1 6,9\nbc 6 60,66\n"

let test_spec_parsing () =
  (match Spec.of_string designer_text with
  | Ok (Spec.Designer { byte_rate; reqs }) ->
      check_int "rate" 4096 byte_rate;
      check_int "files" 3 (List.length reqs)
  | Ok _ -> Alcotest.fail "wrong kind"
  | Error e -> Alcotest.fail e);
  (match Spec.of_string generalized_text with
  | Ok (Spec.Generalized specs) -> check_int "conditions" 3 (List.length specs)
  | Ok _ -> Alcotest.fail "wrong kind"
  | Error e -> Alcotest.fail e);
  let bad s = check_bool s true (Result.is_error (Spec.of_string s)) in
  bad "rate 4096\n";
  bad "pindisk-design v1\nrate 4096\n";
  bad "pindisk-design v1\nrate 4096\nrequire a 100 5\nbc 1 6\n";
  bad "pindisk-design v1\nrequire a 100 5\n";
  bad "pindisk-design v1\nbogus 1 2\n"

(* ------------------------------------------------------------------ *)
(* whole-design audit                                                  *)
(* ------------------------------------------------------------------ *)

let run_audit text =
  match Result.bind (Spec.of_string text) Audit.run with
  | Ok report -> report
  | Error e -> Alcotest.fail e

let test_audit_designer () =
  let report = run_audit designer_text in
  check_bool "ok" true (Audit.ok report);
  Alcotest.(check string) "kind" "designer" report.Audit.kind;
  check_int "files" 3 (List.length report.Audit.files);
  check_bool "traces accepted" true (report.Audit.trace_result = Ok ());
  List.iter
    (fun (f : Audit.file_report) ->
      check_int "levels = tolerance + 1" (f.Audit.tolerance + 1)
        (List.length f.Audit.levels))
    report.Audit.files

let test_audit_generalized () =
  let report = run_audit generalized_text in
  check_bool "ok" true (Audit.ok report);
  Alcotest.(check string) "kind" "generalized" report.Audit.kind;
  check_bool "no problems" true (Audit.problems report = []);
  (* The report embeds one trace per file, and its JSON re-parses. *)
  let json = Audit.to_json report in
  let reparsed =
    match Json.of_string (Json.to_string json) with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  match Json.get_list "traces" reparsed with
  | Error e -> Alcotest.fail e
  | Ok traces -> check_int "one trace per file" 3 (List.length traces)

let test_audit_bands () =
  check_bool "1/3" true (Audit.band_of_density (Q.make 1 3) = Audit.Sa_guarantee);
  check_bool "1/2" true (Audit.band_of_density (Q.make 1 2) = Audit.Sa_guarantee);
  check_bool "7/10" true (Audit.band_of_density (Q.make 7 10) = Audit.Kawamura);
  check_bool "3/4" true (Audit.band_of_density (Q.make 3 4) = Audit.Kawamura);
  check_bool "5/6" true (Audit.band_of_density (Q.make 5 6) = Audit.Kawamura);
  check_bool "9/10" true
    (Audit.band_of_density (Q.make 9 10) = Audit.Above_five_sixths);
  check_bool "1" true (Audit.band_of_density Q.one = Audit.Above_five_sixths);
  check_bool "7/6" true (Audit.band_of_density (Q.make 7 6) = Audit.Above_one)

let () =
  Alcotest.run "check"
    [
      ( "kernel",
        [
          Alcotest.test_case "accepts all producer traces" `Quick
            test_kernel_accepts_producers;
          Alcotest.test_case "accepts the simple-model reduction" `Quick
            test_kernel_accepts_reduction;
          Alcotest.test_case "certified output matches uncertified" `Quick
            test_certified_matches_uncertified;
          Alcotest.test_case "rejects reordered steps" `Quick
            test_kernel_rejects_reordering;
          Alcotest.test_case "rejects truncation" `Quick
            test_kernel_rejects_truncation;
          Alcotest.test_case "rejects a corrupted scale" `Quick
            test_kernel_rejects_bad_scale;
          Alcotest.test_case "rejects overlapping support" `Quick
            test_kernel_rejects_support_overlap;
          Alcotest.test_case "rejects forward references" `Quick
            test_kernel_rejects_forward_reference;
          Alcotest.test_case "rejects uncovered fault levels" `Quick
            test_kernel_rejects_uncovered_level;
          Alcotest.test_case "rejects overflow bait" `Quick
            test_kernel_rejects_overflow_bait;
        ] );
      ( "kernel-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_producer_traces_validate; prop_mutation_rejected ] );
      ( "json",
        [
          Alcotest.test_case "parser" `Quick test_json_parser;
          Alcotest.test_case "non-finite floats rejected" `Quick
            test_json_float_rejects_non_finite;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
        ] );
      ( "mds",
        [
          Alcotest.test_case "exhaustive" `Quick test_mds_exhaustive;
          Alcotest.test_case "structural" `Quick test_mds_structural;
          Alcotest.test_case "detects singular" `Quick test_mds_detects_singular;
        ] );
      ( "rules",
        [
          Alcotest.test_case "implies_scale witness" `Quick
            test_implies_scale_witness;
          QCheck_alcotest.to_alcotest prop_max_guaranteed_matches_linear;
        ] );
      ( "verify",
        [ Alcotest.test_case "window_counts" `Quick test_window_counts ] );
      ("spec", [ Alcotest.test_case "parsing" `Quick test_spec_parsing ]);
      ( "audit",
        [
          Alcotest.test_case "designer design" `Quick test_audit_designer;
          Alcotest.test_case "generalized design" `Quick test_audit_generalized;
          Alcotest.test_case "density bands" `Quick test_audit_bands;
        ] );
    ]
