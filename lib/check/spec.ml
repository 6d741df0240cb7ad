module Designer = Pindisk.Designer
module Generalized = Pindisk.Generalized
module Bc = Pindisk_algebra.Bc

type t =
  | Designer of { byte_rate : int; reqs : Designer.requirement list }
  | Generalized of Generalized.spec list

let header = "pindisk-design v1"

(* Strip the comment tail and split on runs of blanks. *)
let tokens line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let int_tok ~ln what s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "line %d: %s %S is not an integer" ln what s)

let of_string text =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, tokens l))
    |> List.filter (fun (_, ts) -> ts <> [])
  in
  let* lines =
    match lines with
    | (_, [ "pindisk-design"; "v1" ]) :: rest -> Ok rest
    | (ln, _) :: _ ->
        Error (Printf.sprintf "line %d: expected header %S" ln header)
    | [] -> Error (Printf.sprintf "empty spec (expected header %S)" header)
  in
  let rate = ref None in
  let reqs = ref [] in
  let specs = ref [] in
  let rec walk = function
    | [] -> Ok ()
    | (ln, stanza) :: rest ->
        let* () =
          match stanza with
          | [ "rate"; r ] -> (
              let* r = int_tok ~ln "rate" r in
              match !rate with
              | Some _ -> Error (Printf.sprintf "line %d: duplicate rate" ln)
              | None ->
                  if r < 1 then
                    Error (Printf.sprintf "line %d: rate must be positive" ln)
                  else begin
                    rate := Some r;
                    Ok ()
                  end)
          | "require" :: name :: numbers -> (
              let* bytes, latency_s, tolerance =
                match numbers with
                | [ b; l ] ->
                    let* b = int_tok ~ln "bytes" b in
                    let* l = int_tok ~ln "latency" l in
                    Ok (b, l, 0)
                | [ b; l; t ] ->
                    let* b = int_tok ~ln "bytes" b in
                    let* l = int_tok ~ln "latency" l in
                    let* t = int_tok ~ln "tolerance" t in
                    Ok (b, l, t)
                | _ ->
                    Error
                      (Printf.sprintf
                         "line %d: want require NAME BYTES LATENCY [TOL]" ln)
              in
              match
                Designer.requirement ~name ~tolerance ~id:(List.length !reqs)
                  ~bytes ~latency_s ()
              with
              | r ->
                  reqs := r :: !reqs;
                  Ok ()
              | exception Invalid_argument e ->
                  Error (Printf.sprintf "line %d: %s" ln e))
          | [ "bc"; m; ds ] | [ "bc"; m; ds; _ ] -> (
              let* mv = int_tok ~ln "m" m in
              let* d =
                List.fold_left
                  (fun acc s ->
                    let* acc = acc in
                    let* v = int_tok ~ln "latency" s in
                    Ok (v :: acc))
                  (Ok [])
                  (String.split_on_char ',' ds)
              in
              let d = List.rev d in
              let* capacity =
                match stanza with
                | [ _; _; _; c ] ->
                    let* c = int_tok ~ln "capacity" c in
                    Ok (Some c)
                | _ -> Ok None
              in
              match
                Generalized.spec ?capacity
                  (Bc.make ~file:(List.length !specs) ~m:mv ~d)
              with
              | s ->
                  specs := s :: !specs;
                  Ok ()
              | exception Invalid_argument e ->
                  Error (Printf.sprintf "line %d: %s" ln e))
          | w :: _ ->
              Error (Printf.sprintf "line %d: unknown stanza %S" ln w)
          | [] -> assert false
        in
        walk rest
  in
  let* () = walk lines in
  match (!rate, List.rev !reqs, List.rev !specs) with
  | None, [], [] -> Error "no require or bc stanzas"
  | Some _, _, _ :: _ | _, _ :: _, _ :: _ ->
      Error "rate/require and bc stanzas cannot be mixed"
  | Some byte_rate, (_ :: _ as reqs), [] -> Ok (Designer { byte_rate; reqs })
  | Some _, [], [] -> Error "rate given but no require stanzas"
  | None, _ :: _, [] -> Error "require stanzas need a rate"
  | None, [], (_ :: _ as specs) -> Ok (Generalized specs)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e
