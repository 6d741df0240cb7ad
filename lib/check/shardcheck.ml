module P = Pindisk_pinwheel
module Q = Pindisk_util.Q
module Shard = Pindisk.Shard
module File_spec = Pindisk.File_spec
module Program = Pindisk.Program

type channel_report = {
  channel : int;
  files : int;
  period : int;
  density : Q.t;
  witnessed : bool;
}

type file_report = {
  file : int;
  name : string;
  capacity : int;
  channels : int list;
  covered : bool;
  disjoint : bool;
  outage_tolerant : bool;
}

type t = {
  channels : channel_report list;
  files : file_report list;
  shed : int list;
  stripe : int;
}

(* Everything is recounted from the placement map in one pass — share
   size over the file's window, pieces and channels per file — never
   read off the channel records or the design's index, so a lying
   optimizer is caught by arithmetic, not echoed. *)
let run (design : Shard.t) =
  let spec_of = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace spec_of f.File_spec.id f) design.Shard.specs;
  let on_channel = Array.map (fun _ -> []) design.Shard.channels in
  let of_file = Hashtbl.create 64 in
  List.iter
    (fun (p : Shard.placement) ->
      Hashtbl.add of_file p.Shard.file p;
      Hashtbl.find_opt spec_of p.Shard.file
      |> Option.iter (fun f ->
             on_channel.(p.Shard.channel) <-
               P.Task.make ~id:p.Shard.file
                 ~a:(Array.length p.Shard.pieces)
                 ~b:(File_spec.window f ~bandwidth:design.Shard.bandwidth)
               :: on_channel.(p.Shard.channel)))
    design.Shard.placements;
  let check_channel (ch : Shard.channel) =
    let tasks = on_channel.(ch.Shard.index) in
    let schedule = Program.schedule ch.Shard.program in
    {
      channel = ch.Shard.index;
      files = List.length tasks;
      period = P.Schedule.period schedule;
      density = P.Task.system_density tasks;
      witnessed = tasks = [] || P.Verify.satisfies schedule tasks;
    }
  in
  let check_file (f : File_spec.t) =
    let ps = Hashtbl.find_all of_file f.File_spec.id in
    let chans = List.map (fun (p : Shard.placement) -> p.Shard.channel) ps in
    let shares = List.map (fun (p : Shard.placement) -> p.Shard.pieces) ps in
    let pieces = List.concat_map Array.to_list shares in
    let largest = List.fold_left (fun acc a -> max acc (Array.length a)) 0 shares in
    {
      file = f.File_spec.id;
      name = f.File_spec.name;
      capacity = f.File_spec.capacity;
      channels = List.sort compare chans;
      covered = List.sort compare pieces = List.init f.File_spec.capacity Fun.id;
      disjoint =
        List.length (List.sort_uniq compare pieces) = List.length pieces
        && List.length (List.sort_uniq compare chans) = List.length chans;
      (* The worst single-channel outage leaves N - largest share
         pieces: none when the file lives on one channel. *)
      outage_tolerant = List.length pieces - largest >= f.File_spec.blocks;
    }
  in
  {
    channels = Array.to_list (Array.map check_channel design.Shard.channels);
    files =
      design.Shard.specs
      |> List.map check_file
      |> List.sort (fun a b -> compare a.file b.file);
    shed =
      List.sort compare
        (List.map (fun f -> f.File_spec.id) design.Shard.shed);
    stripe = design.Shard.stripe;
  }

let problems t =
  List.concat
    [
      List.filter_map
        (fun c ->
          if not c.witnessed then
            Some
              (Printf.sprintf "channel %d: schedule fails its sub-task system"
                 c.channel)
          else None)
        t.channels;
      List.filter_map
        (fun c ->
          if Q.( > ) c.density Q.one then
            Some
              (Printf.sprintf "channel %d: density above one (infeasible)"
                 c.channel)
          else None)
        t.channels;
      List.concat_map
        (fun (f : file_report) ->
          List.filter_map Fun.id
            [
              (if f.channels = [] then
                 Some (Printf.sprintf "file %d: served by no channel" f.file)
               else None);
              (if not f.covered then
                 Some
                   (Printf.sprintf
                      "file %d: shares do not cover pieces 0..%d" f.file
                      (f.capacity - 1))
               else None);
              (if not f.disjoint then
                 Some
                   (Printf.sprintf
                      "file %d: overlapping shares or duplicated channel"
                      f.file)
               else None);
            ])
        t.files;
    ]

let ok t = problems t = []

let q_to_json (q : Q.t) = Json.Obj [ ("num", Json.Int q.Q.num); ("den", Json.Int q.Q.den) ]

let to_json t =
  Json.Obj
    [
      ("stripe", Json.Int t.stripe);
      ( "channels",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("channel", Json.Int c.channel);
                   ("files", Json.Int c.files);
                   ("period", Json.Int c.period);
                   ("density", q_to_json c.density);
                   ("witnessed", Json.Bool c.witnessed);
                 ])
             t.channels) );
      ( "files",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("file", Json.Int f.file);
                   ("name", Json.Str f.name);
                   ("capacity", Json.Int f.capacity);
                   ("channels", Json.List (List.map (fun c -> Json.Int c) f.channels));
                   ("covered", Json.Bool f.covered);
                   ("disjoint", Json.Bool f.disjoint);
                   ("outage_tolerant", Json.Bool f.outage_tolerant);
                 ])
             t.files) );
      ("shed", Json.List (List.map (fun i -> Json.Int i) t.shed));
      ("problems", Json.List (List.map (fun p -> Json.Str p) (problems t)));
      ("ok", Json.Bool (ok t));
    ]

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun c ->
      Format.fprintf ppf "channel %d: %d file(s), period %d, density %a, %s@,"
        c.channel c.files c.period Q.pp c.density
        (if c.witnessed then "witnessed" else "NOT WITNESSED"))
    t.channels;
  List.iter
    (fun f ->
      Format.fprintf ppf "file %d (%s): channels %s%s%s%s@," f.file f.name
        (String.concat "," (List.map string_of_int f.channels))
        (if f.covered then "" else ", NOT COVERED")
        (if f.disjoint then "" else ", OVERLAP")
        (if f.outage_tolerant then ", outage-tolerant" else ""))
    t.files;
  (match t.shed with
  | [] -> ()
  | shed ->
      Format.fprintf ppf "shed: %s@,"
        (String.concat "," (List.map string_of_int shed)));
  Format.fprintf ppf "%s@]"
    (match problems t with
    | [] -> "shardcheck: ok"
    | ps -> Printf.sprintf "shardcheck: %d problem(s)" (List.length ps))
