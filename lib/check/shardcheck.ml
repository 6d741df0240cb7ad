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
  aired : bool;
  cycled : bool;
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

(* Everything is recounted from the placement map in one pass — each
   share's per-window count over the file's window and its size, pieces
   and channels per file — never read off the channel records or the
   design's index, so a lying optimizer is caught by arithmetic, not
   echoed. *)
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
               P.Task.make ~id:p.Shard.file ~a:p.Shard.per_window
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
    let pieces = ref 0 and twice = ref false and stray = ref [] in
    let aired = ref 0 and largest = ref 0 and within = ref true and cycled = ref true in
    List.iter
      (fun (p : Shard.placement) ->
        let share = p.Shard.pieces in
        pieces := !pieces + Array.length share;
        aired := !aired + p.Shard.per_window;
        largest := max !largest p.Shard.per_window;
        within := !within && p.Shard.per_window <= Array.length share;
        (* Shard.block_at indexes the share with the program's capacity. *)
        let program = design.Shard.channels.(p.Shard.channel).Shard.program in
        (cycled :=
           !cycled
           && match Program.capacity program f.File_spec.id with
              | c -> c = Array.length share
              | exception Not_found -> false);
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
      aired = !within && !aired = f.File_spec.blocks + f.File_spec.tolerance;
      cycled = !cycled;
      covered = (not !twice) && !stray = [] && !pieces = capacity;
      disjoint =
        (not !twice)
        && strictly_ascending (List.sort Int.compare !stray)
        && strictly_ascending chans;
      (* The worst single-channel outage leaves m + r - largest n_j
         pieces a window: none when the file lives on one channel. *)
      outage_tolerant = !aired - !largest >= f.File_spec.blocks;
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
  let say kind id what = Some (Printf.sprintf "%s %d: %s" kind id what) in
  let failed checks = List.filter_map Fun.id checks in
  List.concat_map
    (fun c ->
      let say = say "channel" c.channel in
      failed
        [
          (if c.witnessed then None else say "schedule fails its sub-task system");
          (if Q.( > ) c.density Q.one then say "density above one (infeasible)" else None);
        ])
    t.channels
  @ List.concat_map
      (fun (f : file_report) ->
        let say = say "file" f.file in
        failed
          [
            (if f.channels = [] then say "served by no channel" else None);
            (if f.aired then None
             else say "windows do not air m + r pieces within its shares");
            (if f.cycled then None else say "a program capacity differs from its share size");
            (if f.covered then None
             else say (Printf.sprintf "shares do not cover pieces 0..%d" (f.capacity - 1)));
            (if f.disjoint then None else say "overlapping shares or duplicated channel");
          ])
      t.files

let ok t = problems t = []
