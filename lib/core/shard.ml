module P = Pindisk_pinwheel
module Q = Pindisk_util.Q

type placement = { file : int; channel : int; pieces : int array }

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
  files : (int, entry) Hashtbl.t;  (* admitted and shed *)
  shares : (int, int array) Hashtbl.t array;  (* channel -> file -> pieces *)
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
  let shares = Array.map (fun _ -> Hashtbl.create 64) channels in
  let by_file = Hashtbl.create 64 in
  (* Added in reverse, so [find_all] returns each file's placements
     ascending by channel. *)
  List.iter
    (fun p ->
      Hashtbl.replace shares.(p.channel) p.file p.pieces;
      Hashtbl.add by_file p.file p)
    (List.rev placements);
  let files = Hashtbl.create 64 in
  List.iter
    (fun spec ->
      let placed = Hashtbl.find_all by_file spec.File_spec.id in
      let listen =
        List.stable_sort
          (fun a b -> compare (Array.length b.pieces) (Array.length a.pieces))
          placed
        |> List.map (fun p -> p.channel)
      in
      Hashtbl.replace files spec.File_spec.id { spec; placed; listen })
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

(* Round-robin dealing of [n] global piece indices over [s] stripe
   members: member [j] airs the pieces [{k | k mod s = j}]. Member 0
   holds the largest share. *)
let share ~s ~n j = Array.init ((n - j + s - 1) / s) (fun i -> j + (i * s))

let design ?(stripe = 1) ~channels ~bandwidth specs =
  if channels < 1 then invalid_arg "Shard.design: channels must be >= 1";
  if stripe < 1 then invalid_arg "Shard.design: stripe must be >= 1";
  if bandwidth < 1 then invalid_arg "Shard.design: bandwidth must be >= 1";
  let ids = List.map (fun f -> f.File_spec.id) specs in
  if specs = [] then Error "Shard.design: no files"
  else if List.length (List.sort_uniq compare ids) <> List.length ids then
    Error "Shard.design: duplicate file ids"
  else begin
    let load = Array.make channels P.Density.empty in
    (* file -> its (channel, task, pieces) shares *)
    let placed = Hashtbl.create 64 in
    (* Shares in decreasing size onto distinct channels; a file is placed
       only when every share finds a channel. A share larger than its
       window fits no channel, and is not even a task. *)
    let place f =
      let window = File_spec.window f ~bandwidth in
      let n = f.File_spec.capacity in
      let s = min (min stripe channels) n in
      let rec go chosen j =
        if j = s then Some chosen
        else
          let pieces = share ~s ~n j in
          let a = Array.length pieces in
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
          List.iter
            (fun (c, task, _) -> load.(c) <- P.Density.add load.(c) task)
            chosen;
          Hashtbl.replace placed f.File_spec.id chosen
      | None -> ()
    in
    List.stable_sort
      (fun a b ->
        Q.compare
          (Q.make b.File_spec.capacity (File_spec.window b ~bandwidth))
          (Q.make a.File_spec.capacity (File_spec.window a ~bandwidth)))
      specs
    |> List.iter place;
    (* Each channel's tasks once, in file order. *)
    let tasks = Array.make channels [] in
    List.iter
      (fun f ->
        List.iter
          (fun (c, task, _) -> tasks.(c) <- task :: tasks.(c))
          (Option.value ~default:[] (Hashtbl.find_opt placed f.File_spec.id)))
      (List.rev specs);
    let settled, shed_ids = P.Channels.settle tasks in
    List.iter (Hashtbl.remove placed) shed_ids;
    let channels =
      Array.mapi
        (fun index (tasks, plan) ->
          {
            index;
            tasks;
            density = P.Task.system_density tasks;
            plan;
            program =
              Program.make ~schedule:(P.Plan.to_schedule plan)
                ~capacities:
                  (List.map (fun (t : P.Task.t) -> (t.P.Task.id, t.P.Task.a)) tasks);
          })
        settled
    in
    let admitted, shed =
      List.partition (fun f -> Hashtbl.mem placed f.File_spec.id) specs
    in
    let placements =
      List.concat_map
        (fun f ->
          List.map
            (fun (channel, _, pieces) -> { file = f.File_spec.id; channel; pieces })
            (Hashtbl.find placed f.File_spec.id))
        admitted
      |> List.sort (fun a b -> compare (a.file, a.channel) (b.file, b.channel))
    in
    Ok (make ~channels ~placements ~specs:admitted ~shed ~bandwidth ~stripe)
  end

let block_at t ~channel slot =
  if channel < 0 || channel >= Array.length t.channels then
    invalid_arg "Shard.block_at: no such channel";
  match Program.block_at t.channels.(channel).program slot with
  | None -> None
  | Some (file, local) ->
      Some (file, (Hashtbl.find t.index.shares.(channel) file).(local))

let entry t file = Hashtbl.find_opt t.index.files file
let spec t file = Option.map (fun e -> e.spec) (entry t file)

let placements_of t file =
  match entry t file with Some e -> e.placed | None -> []

let channels_of t file =
  match entry t file with Some e -> e.listen | None -> []

(* N - largest share >= m; a single share leaves 0 < m. *)
let outage_tolerant t file =
  match entry t file with
  | Some { spec; placed; _ } ->
      let sizes = List.map (fun p -> Array.length p.pieces) placed in
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
