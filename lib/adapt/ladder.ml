module Item = Pindisk_rtdb.Item
module Mode = Pindisk_rtdb.Mode
module Admission = Pindisk_rtdb.Admission
module Aida = Pindisk_ida.Aida
module File_spec = Pindisk.File_spec
module Program = Pindisk.Program
module Shard = Pindisk.Shard

type rung =
  | Baseline
  | Boost of int
  | Mode_switch of string
  | Shed of Item.t list
  | Migrate of { file : int; from_channel : int; to_channel : int }

let pp_rung ppf = function
  | Baseline -> Format.fprintf ppf "baseline"
  | Boost b -> Format.fprintf ppf "boost+%d" b
  | Mode_switch m -> Format.fprintf ppf "mode-switch:%s" m
  | Shed items ->
      Format.fprintf ppf "shed:%d item(s) [%s]" (List.length items)
        (String.concat "," (List.map (fun i -> i.Item.name) items))
  | Migrate { file; from_channel; to_channel } ->
      Format.fprintf ppf "migrate:file %d: channel %d -> %d" file from_channel
        to_channel

(* Channel-outage response: re-place every share of the failing channel
   onto the least-loaded surviving channel whose load still admits it,
   committing loads as we go; shares that fit nowhere are stranded. *)
let evacuate (design : Shard.t) ~channel =
  let module P = Pindisk_pinwheel in
  let module Q = Pindisk_util.Q in
  let k = Array.length design.Shard.channels in
  if channel < 0 || channel >= k then
    invalid_arg "Ladder.evacuate: no such channel";
  let task_of (p : Shard.placement) =
    let f = Option.get (Shard.spec design p.Shard.file) in
    P.Task.make ~id:p.Shard.file ~a:p.Shard.per_window
      ~b:(File_spec.window f ~bandwidth:design.Shard.bandwidth)
  in
  let load = P.Channels.loads k in
  List.iter
    (fun (p : Shard.placement) -> P.Channels.add load p.Shard.channel (task_of p))
    design.Shard.placements;
  let evicted =
    design.Shard.placements
    |> List.filter_map (fun (p : Shard.placement) ->
           if p.Shard.channel = channel then Some (p.Shard.file, task_of p)
           else None)
    |> List.stable_sort (fun (_, a) (_, b) ->
           Q.compare (P.Task.density b) (P.Task.density a))
  in
  let rungs = ref [] and stranded = ref [] in
  List.iter
    (fun (file, task) ->
      (* The file's own channels, the failing one among them. *)
      match P.Channels.lightest ~avoid:(Shard.channels_of design file) load task with
      | Some c ->
          P.Channels.add load c task;
          rungs := Migrate { file; from_channel = channel; to_channel = c } :: !rungs
      | None -> stranded := file :: !stranded)
    evicted;
  (List.rev !rungs, List.rev !stranded)

type plan = {
  rung : rung;
  boost : int;
  mode : Mode.t;
  admitted : Item.t list;
  shed : Item.t list;
  specs : File_spec.t list;
  program : Program.t;
}

type t = {
  bandwidth : int;
  base : Mode.t;
  fallbacks : Mode.t list;
  items : Item.t list;
  max_boost : int;
  capacities : (int * int) list; (* item id -> fixed dispersal capacity *)
}

let capacity_for t (item : Item.t) = List.assoc item.Item.id t.capacities

(* The base mode with [b] extra blocks of tolerance on every item the mode
   already treats as real-time; non-real-time items keep their criticality
   (there is nothing to protect). *)
let boosted mode b items =
  if b = 0 then mode
  else
    Mode.make
      ~name:(Printf.sprintf "%s+%d" mode.Mode.name b)
      ~default:mode.Mode.default
      (List.map
         (fun (item : Item.t) ->
           let tol = Mode.tolerance mode item in
           let crit =
             if tol > 0 then Aida.Critical (tol + b)
             else Mode.criticality mode item
           in
           (item.Item.name, crit))
         items)

(* A mode is realized iff its items' single-channel design at the
   ladder's bandwidth sheds nothing; capacities are the fixed dispersal
   levels, so every rung's program cycles blocks of the same dispersal. *)
let try_mode t mode items =
  let specs = Mode.file_specs ~capacity_for:(capacity_for t) mode items in
  Result.to_option (Shard.design ~channels:1 ~bandwidth:t.bandwidth specs)
  |> Fun.flip Option.bind Shard.program
  |> Option.map (fun program -> (mode, specs, program))

let create ?(fallbacks = []) ?(max_boost = 4) ~bandwidth ~base_mode items =
  if items = [] then invalid_arg "Ladder.create: no items";
  if bandwidth < 1 then invalid_arg "Ladder.create: bandwidth must be >= 1";
  if max_boost < 1 then invalid_arg "Ladder.create: max_boost must be >= 1";
  let capacities =
    List.map
      (fun (item : Item.t) ->
        let worst = Mode.max_tolerance (base_mode :: fallbacks) item in
        let cap = item.Item.blocks + worst + max_boost in
        if cap > 255 then
          invalid_arg
            (Printf.sprintf
               "Ladder.create: item %s needs capacity %d > 255 (IDA limit)"
               item.Item.name cap);
        (item.Item.id, cap))
      items
  in
  let t = { bandwidth; base = base_mode; fallbacks; items; max_boost; capacities } in
  if try_mode t base_mode items = None then
    invalid_arg "Ladder.create: base mode not schedulable at this bandwidth";
  t

let plan t ~boost =
  let b = max 0 (min boost t.max_boost) in
  let rung_plan rung ?(shed = []) admitted (mode, specs, program) =
    { rung; boost = b; mode; admitted; shed; specs; program }
  in
  match try_mode t (boosted t.base b t.items) t.items with
  | Some realized ->
      rung_plan (if b = 0 then Baseline else Boost b) t.items realized
  | None -> (
      let fallback =
        List.find_map
          (fun fb -> try_mode t (boosted fb b t.items) t.items) t.fallbacks
      in
      match fallback with
      | Some ((mode, _, _) as realized) ->
          rung_plan (Mode_switch mode.Mode.name) t.items realized
      | None ->
          (* Last rung: keep the boost for whoever survives admission and
             shed the lowest value-density items. The most austere mode we
             have is the last fallback (or the base mode without one). *)
          let austere =
            match List.rev t.fallbacks with m :: _ -> m | [] -> t.base
          in
          let mode = boosted austere b t.items in
          let verdict = Admission.admit ~bandwidth:t.bandwidth ~mode t.items in
          let admitted = verdict.Admission.admitted in
          if admitted = [] then
            invalid_arg "Ladder.plan: no item admissible at this bandwidth";
          (* Admission planned the admitted items' tasks, and capacities do
             not enter a task, so their provisioned design sheds nothing. *)
          rung_plan (Shed verdict.Admission.rejected) ~shed:verdict.Admission.rejected
            admitted
            (Option.get (try_mode t mode admitted)))
