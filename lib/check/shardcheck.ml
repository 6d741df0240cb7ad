module P = Pindisk_pinwheel
module Q = Pindisk_util.Q
module Inttbl = Pindisk_util.Inttbl
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

(* A sorted int list holds no value twice. *)
let rec strictly_ascending = function
  | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
  | _ -> true

(* Everything is recounted from the placement map in one pass — share
   size over the file's window, pieces and channels per file — never
   read off the channel records or the design's index, so a lying
   optimizer is caught by arithmetic, not echoed. *)
let run (design : Shard.t) =
  let spec_of = Inttbl.create 64 in
  List.iter (fun f -> Inttbl.replace spec_of f.File_spec.id f) design.Shard.specs;
  let on_channel = Array.map (fun _ -> []) design.Shard.channels in
  let of_file = Inttbl.create 64 in
  List.iter
    (fun (p : Shard.placement) ->
      Inttbl.add of_file p.Shard.file p;
      Inttbl.find_opt spec_of p.Shard.file
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
  (* Each piece of a file counted into an array of its capacity: the
     shares cover it when they hold N pieces, none twice and none out of
     range, and are disjoint when no piece is held twice. Out-of-range
     pieces, which only a corrupt design has, are compared sorted. *)
  let check_file (f : File_spec.t) =
    let ps = Inttbl.find_all of_file f.File_spec.id in
    let capacity = f.File_spec.capacity in
    let seen = Array.make (max 0 capacity) 0 in
    let pieces = ref 0 and largest = ref 0 and twice = ref false and stray = ref [] in
    List.iter
      (fun (p : Shard.placement) ->
        let share = p.Shard.pieces in
        pieces := !pieces + Array.length share;
        largest := max !largest (Array.length share);
        Array.iter
          (fun k ->
            if 0 <= k && k < capacity then begin
              if seen.(k) > 0 then twice := true;
              seen.(k) <- seen.(k) + 1
            end
            else stray := k :: !stray)
          share)
      ps;
    let chans = List.sort Int.compare (List.map (fun (p : Shard.placement) -> p.Shard.channel) ps) in
    {
      file = f.File_spec.id;
      name = f.File_spec.name;
      capacity;
      channels = chans;
      covered = (not !twice) && !stray = [] && !pieces = capacity;
      disjoint =
        (not !twice)
        && strictly_ascending (List.sort Int.compare !stray)
        && strictly_ascending chans;
      (* The worst single-channel outage leaves N - largest share
         pieces: none when the file lives on one channel. *)
      outage_tolerant = !pieces - !largest >= f.File_spec.blocks;
    }
  in
  {
    channels = Array.to_list (Array.map check_channel design.Shard.channels);
    files =
      design.Shard.specs
      |> List.map check_file
      |> List.sort (fun a b -> Int.compare a.file b.file);
    shed =
      List.sort Int.compare
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
