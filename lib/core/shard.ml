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

(* Greedy stripe placement for one file: shares in decreasing size onto
   the lightest distinct channels whose load admits them. Returns the
   (channel, share ordinal) choices, or None when some share fits
   nowhere. *)
let place_file ~channels ~load ~window ~file ~shares =
  let chosen = ref [] in
  let ok =
    List.for_all
      (fun (j, (pieces : int array)) ->
        let n_j = Array.length pieces in
        let candidates =
          List.init channels Fun.id
          |> List.filter (fun c ->
                 not (List.mem_assoc c !chosen))
          |> List.stable_sort (fun a b ->
                 Q.compare (P.Density.density load.(a)) (P.Density.density load.(b)))
        in
        (* A share larger than its window fits no channel, and is not
           even a task. *)
        n_j <= window
        &&
        let task = P.Task.make ~id:file ~a:n_j ~b:window in
        match List.find_opt (fun c -> P.Density.admits load.(c) task) candidates with
        | Some c ->
            chosen := (c, j) :: !chosen;
            true
        | None -> false)
      (List.mapi (fun j p -> (j, p)) shares)
  in
  if ok then Some (List.rev !chosen) else None

let build_channel ~index ~tasks ~plan ~shares_of =
  let schedule = P.Plan.to_schedule plan in
  let capacities =
    List.map
      (fun (tk : P.Task.t) -> (tk.P.Task.id, Array.length (shares_of tk.P.Task.id)))
      tasks
  in
  {
    index;
    tasks;
    density = P.Task.system_density tasks;
    plan;
    program = Program.make ~schedule ~capacities;
  }

let empty_channel index =
  let plan = P.Plan.progressions [] in
  {
    index;
    tasks = [];
    density = Q.zero;
    plan;
    program = Program.make ~schedule:(P.Plan.to_schedule plan) ~capacities:[];
  }

(* The single-channel identity: exactly the Program.pinwheel pipeline
   (task (i, m+r, B·T), full capacity cycled on one channel). *)
let single ?algorithm ~bandwidth specs =
  match List.map (fun f -> File_spec.to_task f ~bandwidth) specs with
  | exception Invalid_argument _ -> None
  | sys -> (
      match P.Scheduler.plan ?algorithm sys with
      | None -> None
      | Some plan ->
          let program =
            Program.make
              ~schedule:(P.Plan.to_schedule plan)
              ~capacities:
                (List.map
                   (fun f -> (f.File_spec.id, f.File_spec.capacity))
                   specs)
          in
          Some
            (make
               ~channels:
                 [|
                   {
                     index = 0;
                     tasks = sys;
                     density = P.Task.system_density sys;
                     plan;
                     program;
                   };
                 |]
               ~placements:
                 (List.map
                    (fun f ->
                      {
                        file = f.File_spec.id;
                        channel = 0;
                        pieces = Array.init f.File_spec.capacity Fun.id;
                      })
                    specs)
               ~specs ~shed:[] ~bandwidth ~stripe:1))

let design ?(stripe = 1) ?algorithm ~channels ~bandwidth specs =
  if channels < 1 then invalid_arg "Shard.design: channels must be >= 1";
  if stripe < 1 then invalid_arg "Shard.design: stripe must be >= 1";
  if bandwidth < 1 then invalid_arg "Shard.design: bandwidth must be >= 1";
  let ids = List.map (fun f -> f.File_spec.id) specs in
  if specs = [] then Error "Shard.design: no files"
  else if List.length (List.sort_uniq compare ids) <> List.length ids then
    Error "Shard.design: duplicate file ids"
  else
    match
      if channels = 1 && stripe = 1 then single ?algorithm ~bandwidth specs
      else None
    with
    | Some t -> Ok t
    | None ->
  (* Not schedulable as a plain single channel (or K > 1): the general
     packing path, which sheds files instead of failing. *)
  begin
    let load = Array.make channels P.Density.empty in
    (* file -> (channel * stripe ordinal) list, insertion order. *)
    let placed : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
    let spec_of = Hashtbl.create 16 in
    List.iter (fun f -> Hashtbl.replace spec_of f.File_spec.id f) specs;
    let by_density =
      List.stable_sort
        (fun a b ->
          Q.compare
            (Q.make b.File_spec.capacity (File_spec.window b ~bandwidth))
            (Q.make a.File_spec.capacity (File_spec.window a ~bandwidth)))
        specs
    in
    List.iter
      (fun f ->
        let window = File_spec.window f ~bandwidth in
        let n = f.File_spec.capacity in
        let s = min (min stripe channels) n in
        let shares = List.init s (share ~s ~n) in
        match
          place_file ~channels ~load ~window ~file:f.File_spec.id ~shares
        with
        | Some choices ->
            List.iter
              (fun (c, j) ->
                let a = Array.length (List.nth shares j) in
                load.(c) <-
                  P.Density.add load.(c)
                    (P.Task.make ~id:f.File_spec.id ~a ~b:window))
              choices;
            Hashtbl.replace placed f.File_spec.id choices
        | None -> ())
      by_density;
    (* Plan every channel; a scheduler failure sheds the failing
       channel's densest file everywhere and the loop re-plans. *)
    let channel_tasks c =
      List.filter_map
        (fun f ->
          match Hashtbl.find_opt placed f.File_spec.id with
          | None -> None
          | Some choices ->
              List.assoc_opt c
                (List.map (fun (ch, j) -> (ch, j)) choices)
              |> Option.map (fun j ->
                     let n = f.File_spec.capacity in
                     let s = List.length choices in
                     P.Task.make ~id:f.File_spec.id
                       ~a:(Array.length (share ~s ~n j))
                       ~b:(File_spec.window f ~bandwidth)))
        specs
    in
    let plans = Array.make channels None in
    let settled = ref false in
    while not !settled do
      settled := true;
      (try
         for c = 0 to channels - 1 do
           let tasks = channel_tasks c in
           if tasks = [] then plans.(c) <- Some (P.Plan.progressions [])
           else
             match P.Scheduler.plan ?algorithm tasks with
             | Some p -> plans.(c) <- Some p
             | None ->
                 let worst =
                   List.fold_left
                     (fun (acc : P.Task.t) (t : P.Task.t) ->
                       let cq =
                         Q.compare (P.Task.density t) (P.Task.density acc)
                       in
                       if cq > 0 || (cq = 0 && t.P.Task.id > acc.P.Task.id)
                       then t
                       else acc)
                     (List.hd tasks) (List.tl tasks)
                 in
                 Hashtbl.remove placed worst.P.Task.id;
                 settled := false;
                 raise Exit
         done
       with Exit -> ())
    done;
    let shares_of file =
      match Hashtbl.find_opt placed file with
      | None -> fun _ -> [||]
      | Some choices ->
          let s = List.length choices in
          let n = (Hashtbl.find spec_of file).File_spec.capacity in
          fun c ->
            (match List.assoc_opt c choices with
            | Some j -> share ~s ~n j
            | None -> [||])
    in
    let channel_arr =
      Array.init channels (fun c ->
          let tasks = channel_tasks c in
          if tasks = [] then empty_channel c
          else
            build_channel ~index:c ~tasks
              ~plan:(Option.get plans.(c))
              ~shares_of:(fun file -> shares_of file c))
    in
    let placements =
      List.concat_map
        (fun f ->
          match Hashtbl.find_opt placed f.File_spec.id with
          | None -> []
          | Some choices ->
              List.map
                (fun (c, _) ->
                  {
                    file = f.File_spec.id;
                    channel = c;
                    pieces = shares_of f.File_spec.id c;
                  })
                (List.sort compare choices))
        specs
      |> List.sort (fun a b -> compare (a.file, a.channel) (b.file, b.channel))
    in
    let admitted, shed =
      List.partition (fun f -> Hashtbl.mem placed f.File_spec.id) specs
    in
    Ok
      (make ~channels:channel_arr ~placements ~specs:admitted ~shed ~bandwidth
         ~stripe)
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
