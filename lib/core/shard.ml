module P = Pindisk_pinwheel
module Q = Pindisk_util.Q
module Inttbl = Pindisk_util.Inttbl

type placement = { file : int; channel : int; pieces : int array; per_window : int }

type channel = {
  index : int;
  tasks : P.Task.system;
  density : Q.t;
  plan : P.Plan.t;
  program : Program.t;
}

(* One file's entry in the index: its spec, its placements ascending by
   channel, and its listening order. *)
type entry = { spec : File_spec.t; placed : placement list; listen : int list }

type index = {
  files : entry Inttbl.t;  (* admitted and shed *)
  shares : int array Inttbl.t array;  (* channel -> file -> pieces *)
}

type t = {
  channels : channel array;
  placements : placement list;
  specs : File_spec.t list;
  shed : File_spec.t list;
  bandwidth : int;
  stripe : int;
  index : index;
}

(* The only constructor: indexes the final placements once. The index
   holds the placement records themselves, so it shares their pieces. *)
let make ~channels ~placements ~specs ~shed ~bandwidth ~stripe =
  let shares = Array.map (fun _ -> Inttbl.create 64) channels in
  let by_file = Inttbl.create 64 in
  (* Added in reverse, so [find_all] returns each file's placements
     ascending by channel. *)
  List.iter
    (fun p ->
      Inttbl.replace shares.(p.channel) p.file p.pieces;
      Inttbl.add by_file p.file p)
    (List.rev placements);
  let files = Inttbl.create 64 in
  List.iter
    (fun spec ->
      let placed = Inttbl.find_all by_file spec.File_spec.id in
      let listen =
        List.stable_sort
          (fun a b -> compare b.per_window a.per_window)
          placed
        |> List.map (fun p -> p.channel)
      in
      Inttbl.replace files spec.File_spec.id { spec; placed; listen })
    (specs @ shed);
  {
    channels;
    placements;
    specs;
    shed;
    bandwidth;
    stripe;
    index = { files; shares };
  }

(* Round-robin dealing of [n] over [s] stripe members: member [j] gets
   [{k < n | k mod s = j}], so member 0 gets the most. The N pieces and
   the m + r a window airs are dealt alike. *)
let dealt ~s ~n j = (n - j + s - 1) / s
let share ~s ~n j = Array.init (dealt ~s ~n j) (fun i -> j + (i * s))

let design ?(stripe = 1) ~channels ~bandwidth specs =
  if channels < 1 then invalid_arg "Shard.design: channels must be >= 1";
  if stripe < 1 then invalid_arg "Shard.design: stripe must be >= 1";
  if bandwidth < 1 then invalid_arg "Shard.design: bandwidth must be >= 1";
  let ids = List.map (fun f -> f.File_spec.id) specs in
  if specs = [] then Error "Shard.design: no files"
  else if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
    Error "Shard.design: duplicate file ids"
  else begin
    let load = P.Channels.loads channels in
    (* file -> its (channel, task, pieces) shares *)
    let placed = Inttbl.create 64 in
    (* The pieces every window airs, the paper's m + r. *)
    let aired f = f.File_spec.blocks + f.File_spec.tolerance in
    (* Shares in decreasing size onto distinct channels; a file is placed
       only when every share finds a channel. A share airing more pieces
       than its window has slots fits no channel, and is not even a
       task. *)
    let place f =
      let window = File_spec.window f ~bandwidth in
      let s = min (min stripe channels) (aired f) in
      let rec go chosen j =
        if j = s then Some chosen
        else
          let pieces = share ~s ~n:f.File_spec.capacity j in
          let a = dealt ~s ~n:(aired f) j in
          if a > window then None
          else
            let task = P.Task.make ~id:f.File_spec.id ~a ~b:window in
            let avoid = List.map (fun (c, _, _) -> c) chosen in
            match P.Channels.lightest ~avoid load task with
            | Some c -> go ((c, task, pieces) :: chosen) (j + 1)
            | None -> None
      in
      match go [] 0 with
      | Some chosen ->
          List.iter (fun (c, task, _) -> P.Channels.add load c task) chosen;
          Inttbl.replace placed f.File_spec.id chosen
      | None -> ()
    in
    (* Decreasing density, each key made once; stable, so equal
       densities keep spec order. *)
    List.map
      (fun f -> (Q.make (aired f) (File_spec.window f ~bandwidth), f))
      specs
    |> List.stable_sort (fun (a, _) (b, _) -> Q.compare b a)
    |> List.iter (fun (_, f) -> place f);
    (* Each channel's tasks once, in file order. *)
    let tasks = Array.make channels [] in
    List.iter
      (fun f ->
        List.iter
          (fun (c, task, _) -> tasks.(c) <- task :: tasks.(c))
          (Option.value ~default:[] (Inttbl.find_opt placed f.File_spec.id)))
      (List.rev specs);
    let settled, shed_ids = P.Channels.settle tasks in
    List.iter (Inttbl.remove placed) shed_ids;
    (* A channel program cycles the N_j pieces of each share. *)
    let capacity index (t : P.Task.t) =
      let _, _, pieces =
        List.find (fun (c, _, _) -> c = index) (Inttbl.find placed t.P.Task.id)
      in
      (t.P.Task.id, Array.length pieces)
    in
    let channels =
      Array.mapi
        (fun index (tasks, plan) ->
          {
            index;
            tasks;
            density = P.Task.system_density tasks;
            plan;
            program = Program.of_plan plan ~capacities:(List.map (capacity index) tasks);
          })
        settled
    in
    let admitted, shed =
      List.partition (fun f -> Inttbl.mem placed f.File_spec.id) specs
    in
    let placements =
      List.concat_map
        (fun f ->
          List.map
            (fun (channel, (task : P.Task.t), pieces) ->
              { file = f.File_spec.id; channel; pieces; per_window = task.P.Task.a })
            (Inttbl.find placed f.File_spec.id))
        admitted
      |> List.sort (fun a b ->
             match Int.compare a.file b.file with
             | 0 -> Int.compare a.channel b.channel
             | k -> k)
    in
    Ok (make ~channels ~placements ~specs:admitted ~shed ~bandwidth ~stripe)
  end

let block_at t ~channel slot =
  if channel < 0 || channel >= Array.length t.channels then
    invalid_arg "Shard.block_at: no such channel";
  match Program.block_at t.channels.(channel).program slot with
  | None -> None
  | Some (file, local) ->
      Some (file, (Inttbl.find t.index.shares.(channel) file).(local))

let program t =
  match (t.channels, t.shed) with [| c |], [] -> Some c.program | _ -> None

let entry t file = Inttbl.find_opt t.index.files file
let spec t file = Option.map (fun e -> e.spec) (entry t file)

let channels_of t file =
  match entry t file with Some e -> e.listen | None -> []

(* m + r - largest n_j >= m; a single share leaves 0 < m. *)
let outage_tolerant t file =
  match entry t file with
  | Some { spec; placed; _ } ->
      let sizes = List.map (fun p -> p.per_window) placed in
      List.fold_left ( + ) 0 sizes - List.fold_left max 0 sizes
      >= spec.File_spec.blocks
  | None -> false

let aggregate_density t =
  Array.fold_left (fun acc c -> Q.add acc c.density) Q.zero t.channels

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun (c : channel) ->
      Format.fprintf ppf "channel %d: density %a, %d file(s)%s@," c.index Q.pp
        c.density (List.length c.tasks)
        (if c.tasks = [] then ""
         else
           ": "
           ^ String.concat ", "
               (List.map
                  (fun (tk : P.Task.t) ->
                    Printf.sprintf "%d(%d/%d)" tk.P.Task.id tk.P.Task.a
                      tk.P.Task.b)
                  c.tasks)))
    t.channels;
  Format.fprintf ppf "shed: %d file(s)%s@]" (List.length t.shed)
    (if t.shed = [] then ""
     else
       ": "
       ^ String.concat ", "
           (List.map (fun f -> f.File_spec.name) t.shed))
