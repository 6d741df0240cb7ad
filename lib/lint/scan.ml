(* The compiler-libs parsetree pass.

   [string]/[file] parse one .ml source and emit every *candidate*
   finding for rules L1-L5, untriaged: Driver applies the config scopes,
   allow entries and the baseline afterwards, so the mechanism here
   stays policy-free and the self-tests can probe each rule directly.

   The pass is purely syntactic (parsetree only, no typing): it sees
   what is written, not what is meant. DESIGN 5h lists the soundness
   caveats (aliasing, closures passed by name, re-exported wrappers). *)

type source = { file : string; (* repo-relative, for diagnostics *) text : string }

let toplevel = "<toplevel>"

(* Longident paths, with a leading [Stdlib] stripped so [Stdlib.raise]
   and [raise] triage the same way. *)
let path_of lid =
  match Longident.flatten lid with "Stdlib" :: rest -> rest | p -> p

let ident_path e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> Some (path_of txt)
  | _ -> None

let dotted = String.concat "."

(* ---- L1: wall-clock and global-state randomness ------------------- *)

(* [Random.State.*] is deliberately absent: seeded, locally-owned state
   is exactly what slot-domain code should use. The bare [Random.*]
   calls below read or reseed the implicit global generator, so their
   results depend on call order across the whole process. *)
let nondeterministic =
  [
    [ "Unix"; "gettimeofday" ];
    [ "Unix"; "time" ];
    [ "Unix"; "times" ];
    [ "Sys"; "time" ];
    [ "Random"; "self_init" ];
    [ "Random"; "init" ];
    [ "Random"; "full_init" ];
    [ "Random"; "int" ];
    [ "Random"; "full_int" ];
    [ "Random"; "int32" ];
    [ "Random"; "int64" ];
    [ "Random"; "nativeint" ];
    [ "Random"; "float" ];
    [ "Random"; "bool" ];
    [ "Random"; "bits" ];
  ]

(* ---- L2: bare escape hatches in typed-error territory ------------- *)

let raisers = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* ---- L4: spawn points whose closures cross domains ---------------- *)

let is_spawn_point path =
  match List.rev path with
  | ("parallel_for" | "parallel_for_reduce") :: _ -> true
  | "spawn" :: "Domain" :: _ -> true
  | _ -> false

let hashtbl_mutators =
  [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]

(* ------------------------------------------------------------------- *)

let pattern_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self pp ->
          (match pp.Parsetree.ppat_desc with
          | Parsetree.Ppat_var v -> acc := v.txt :: !acc
          | Parsetree.Ppat_alias (_, v) -> acc := v.txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self pp);
    }
  in
  it.pat it p;
  !acc

(* Does a try/match case swallow whatever it catches? Top-level [_],
   either branch of an or-pattern being [_], or [exception _]. *)
let rec swallows_all p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_any -> true
  | Parsetree.Ppat_alias (p, _) -> swallows_all p
  | Parsetree.Ppat_or (a, b) -> swallows_all a || swallows_all b
  | Parsetree.Ppat_exception p -> swallows_all p
  | _ -> false

type state = {
  file : string;
  mutable context : string;
  mutable diags : Diag.t list;
}

let emit st ~rule ~loc message =
  let pos = loc.Location.loc_start in
  st.diags <-
    Diag.make ~rule ~file:st.file ~line:pos.Lexing.pos_lnum
      ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
      ~context:st.context ~message
    :: st.diags

(* L4 race heuristic over one function literal handed to a spawn point.

   Names bound anywhere inside the closure (parameters, lets, match and
   function cases, for-loop indices — in an expression every pattern
   node is a binder) are collected first; a mutation whose target is
   not in that set therefore hits state captured from outside the
   closure, i.e. state shared across domains. Over-approximating the
   bound set trades false positives away for false negatives on
   shadowing — the right bias for a lint that gates CI. *)
let check_closure st ~call (pats, body, cases) =
  let bound = Hashtbl.create 16 in
  let bind names = List.iter (fun n -> Hashtbl.replace bound n ()) names in
  List.iter (fun p -> bind (pattern_vars p)) pats;
  let exprs =
    (match body with Some b -> [ b ] | None -> [])
    @ List.concat_map
        (fun c ->
          bind (pattern_vars c.Parsetree.pc_lhs);
          (match c.Parsetree.pc_guard with Some g -> [ g ] | None -> [])
          @ [ c.Parsetree.pc_rhs ])
        cases
  in
  let collect =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self pp ->
          (match pp.Parsetree.ppat_desc with
          | Parsetree.Ppat_var v -> bind [ v.txt ]
          | Parsetree.Ppat_alias (_, v) -> bind [ v.txt ]
          | _ -> ());
          Ast_iterator.default_iterator.pat self pp);
    }
  in
  List.iter (collect.expr collect) exprs;
  let free_ident e =
    match ident_path e with
    | Some [ x ] when not (Hashtbl.mem bound x) -> Some x
    | _ -> None
  in
  let mutation e =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_setfield (base, _, _) -> (
        match free_ident base with
        | Some x ->
            Some
              (Printf.sprintf
                 "mutable-field write on %s inside the closure passed to %s; \
                  %s is captured from outside and shared across domains"
                 x call x)
        | None -> None)
    | Parsetree.Pexp_apply (f, (_, a1) :: _) -> (
        match (ident_path f, free_ident a1) with
        | Some [ ":=" ], Some x | Some [ ("incr" | "decr") ], Some x ->
            Some
              (Printf.sprintf
                 "ref %s is mutated inside the closure passed to %s but \
                  defined outside it; use Atomic (or merge per-domain \
                  results after the join)"
                 x call)
        | Some [ "Hashtbl"; m ], Some x when List.mem m hashtbl_mutators ->
            Some
              (Printf.sprintf
                 "Hashtbl.%s on %s inside the closure passed to %s races: \
                  Hashtbl is not domain-safe; shard per domain or hold a \
                  Mutex"
                 m x call)
        | _ -> None)
    | _ -> None
  in
  let mut =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match mutation e with
          | Some msg -> emit st ~rule:"L4" ~loc:e.Parsetree.pexp_loc msg
          | None -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  List.iter (mut.expr mut) exprs

let on_ident st ~loc path =
  (if List.mem path nondeterministic then
     emit st ~rule:"L1" ~loc
       (Printf.sprintf
          "%s: wall-clock/global-RNG read; slot-domain code must be a pure \
           function of (seed, slot) or replay breaks"
          (dotted path)));
  (match path with
  | [ r ] when List.mem r raisers ->
      emit st ~rule:"L2" ~loc
        (Printf.sprintf
           "bare %s in a transport/retrieve path; return a typed error \
            (a [result] value) instead"
           r)
  | _ -> ());
  (if
     List.exists
       (fun c -> String.length c > 7 && String.sub c 0 7 = "unsafe_")
       path
     || path = [ "Obj"; "magic" ]
   then
     emit st ~rule:"L3" ~loc
       (Printf.sprintf
          "%s: unchecked access outside the gf256/ida kernels; use the \
           bounds-checked variant"
          (dotted path)));
  match path with
  | "Atomic" :: _ ->
      emit st ~rule:"L4" ~loc
        (Printf.sprintf
           "raw %s outside lib/obs/lib/util; shared state goes through \
            Obs.Registry counters or Pindisk_util.Pool"
           (dotted path))
  | _ -> ()

let run_iterator st ast =
  let expr_hook self e =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } -> on_ident st ~loc (path_of txt)
    | Parsetree.Pexp_apply (f, args) -> (
        match ident_path f with
        | Some path when is_spawn_point path ->
            List.iter
              (fun (_, a) ->
                match Compat.as_closure a with
                | Some closure ->
                    check_closure st ~call:(dotted path) closure
                | None -> ())
              args
        | _ -> ())
    | Parsetree.Pexp_try (_, handlers) ->
        List.iter
          (fun c ->
            if swallows_all c.Parsetree.pc_lhs then
              emit st ~rule:"L5" ~loc:c.Parsetree.pc_lhs.ppat_loc
                "catch-all handler discards the exception; match the \
                 specific exceptions (or rebind and re-raise)")
          handlers
    | Parsetree.Pexp_match (_, handlers) ->
        List.iter
          (fun c ->
            match c.Parsetree.pc_lhs.ppat_desc with
            | Parsetree.Ppat_exception p when swallows_all p ->
                emit st ~rule:"L5" ~loc:c.Parsetree.pc_lhs.ppat_loc
                  "catch-all [exception _] case discards the exception; \
                   match the specific exceptions"
            | _ -> ())
          handlers
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let structure_item_hook self item =
    match item.Parsetree.pstr_desc with
    | Parsetree.Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let saved = st.context in
            (match pattern_vars vb.Parsetree.pvb_pat with
            | name :: _ -> st.context <- name
            | [] -> ());
            self.Ast_iterator.expr self vb.Parsetree.pvb_expr;
            st.context <- saved)
          vbs
    | Parsetree.Pstr_primitive vd ->
        let saved = st.context in
        st.context <- vd.Parsetree.pval_name.txt;
        List.iter
          (fun prim ->
            let n = String.length prim in
            if n > 1 && prim.[0] = '%' && prim.[n - 1] = 'u' then
              emit st ~rule:"L3" ~loc:vd.Parsetree.pval_loc
                (Printf.sprintf
                   "external %s binds unchecked primitive %S outside the \
                    gf256/ida kernels"
                   vd.Parsetree.pval_name.txt prim))
          vd.Parsetree.pval_prim;
        st.context <- saved
    | _ -> Ast_iterator.default_iterator.structure_item self item
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = expr_hook;
      structure_item = structure_item_hook;
    }
  in
  it.structure it ast

let string { file; text } =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | ast ->
      let st = { file; context = toplevel; diags = [] } in
      run_iterator st ast;
      Ok (List.sort Diag.compare st.diags)
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok err) ->
          Error
            (Format.asprintf "%s: %a" file Location.print_report err)
      | _ -> Error (Printf.sprintf "%s: %s" file (Printexc.to_string exn)))

let file ~path ~rel =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> string { file = rel; text }
  | exception Sys_error e -> Error e
