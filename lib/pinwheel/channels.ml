module Q = Pindisk_util.Q

type shard = {
  channel : int;
  tasks : Task.system;
  density : Q.t;
  plan : Plan.t;
}

type t = {
  channels : int;
  shards : shard list;
  shed : Task.system;
}

(* One pass: a channel replaces the best so far only when it is strictly
   lighter, so ties keep the lower index, and [admits] runs only on a
   channel that would win. *)
let lightest ?(avoid = []) load t =
  let best = ref None in
  Array.iteri
    (fun c l ->
      let lighter =
        match !best with
        | None -> true
        | Some b ->
            Q.compare (Density.density l) (Density.density load.(b)) < 0
      in
      if lighter && (not (List.mem c avoid)) && Density.admits l t then
        best := Some c)
    load;
  !best

let partition ~channels sys =
  if channels < 1 then invalid_arg "Channels.partition: channels must be >= 1";
  (match Task.check_system sys with
  | Ok () -> ()
  | Error e -> invalid_arg ("Channels.partition: " ^ e));
  let load = Array.make channels Density.empty in
  let placed : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (* Decreasing density; stable, so equal densities keep input order. *)
  List.stable_sort
    (fun (a : Task.t) (b : Task.t) ->
      Q.compare (Task.density b) (Task.density a))
    sys
  |> List.iter (fun (t : Task.t) ->
         match lightest load t with
         | Some c ->
             load.(c) <- Density.add load.(c) t;
             Hashtbl.replace placed t.Task.id c
         | None -> ());
  List.partition_map
    (fun (t : Task.t) ->
      match Hashtbl.find_opt placed t.Task.id with
      | Some c -> Left (c, t)
      | None -> Right t)
    sys

let empty_plan = lazy (Plan.progressions [])

(* The densest task, ties to the higher id. *)
let densest tasks =
  List.fold_left
    (fun (acc : Task.t) (t : Task.t) ->
      let c = Q.compare (Task.density t) (Task.density acc) in
      if c > 0 || (c = 0 && t.Task.id > acc.Task.id) then t else acc)
    (List.hd tasks) (List.tl tasks)

(* Plan the lowest channel without a plan. A failure sheds its densest
   task from every channel holding it and drops their plans; the walk
   resumes at the lowest of them. A channel whose tasks did not change
   keeps its plan: planning is deterministic, so re-planning it would
   give the same answer. *)
let settle ?algorithm channels =
  let tasks = Array.copy channels in
  let k = Array.length tasks in
  let plans = Array.make k None in
  let shed = ref [] in
  let rec walk c =
    if c < k then
      match plans.(c) with
      | Some _ -> walk (c + 1)
      | None -> (
          let ts = tasks.(c) in
          match
            if ts = [] then Some (Lazy.force empty_plan)
            else Scheduler.plan ?algorithm ts
          with
          | Some _ as plan ->
              plans.(c) <- plan;
              walk (c + 1)
          | None ->
              let id = (densest ts).Task.id in
              shed := id :: !shed;
              let first = ref c in
              Array.iteri
                (fun h ts ->
                  if List.exists (fun (t : Task.t) -> t.Task.id = id) ts then begin
                    tasks.(h) <-
                      List.filter (fun (t : Task.t) -> t.Task.id <> id) ts;
                    plans.(h) <- None;
                    first := min !first h
                  end)
                tasks;
              walk !first)
  in
  walk 0;
  (Array.map2 (fun ts p -> (ts, Option.get p)) tasks plans, List.rev !shed)

let plan ?algorithm ~channels sys =
  let assignment, _ = partition ~channels sys in
  let lists = Array.make channels [] in
  List.iter (fun (c, t) -> lists.(c) <- t :: lists.(c)) (List.rev assignment);
  let settled, _ = settle ?algorithm lists in
  (* Whatever no channel kept was shed, by placement or by planning. *)
  let kept = Hashtbl.create 16 in
  Array.iter
    (fun (tasks, _) ->
      List.iter (fun (t : Task.t) -> Hashtbl.replace kept t.Task.id ()) tasks)
    settled;
  {
    channels;
    shards =
      Array.to_list
        (Array.mapi
           (fun channel (tasks, plan) ->
             { channel; tasks; density = Task.system_density tasks; plan })
           settled);
    shed = List.filter (fun (t : Task.t) -> not (Hashtbl.mem kept t.Task.id)) sys;
  }
