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

let density (s : shard) = s.density

(* LPT over exact densities. [load.(c)] is channel [c]'s running load
   (only the load matters during packing; output order is re-derived
   from the input). *)
let partition ~channels sys =
  if channels < 1 then invalid_arg "Channels.partition: channels must be >= 1";
  (match Task.check_system sys with
  | Ok () -> ()
  | Error e -> invalid_arg ("Channels.partition: " ^ e));
  if channels = 1 then (List.map (fun t -> (0, t)) sys, [])
  else begin
    let load = Array.make channels Density.empty in
    let placed : (int, int) Hashtbl.t = Hashtbl.create 16 in
    (* Decreasing density; stable, so equal densities keep input order. *)
    let by_density =
      List.stable_sort
        (fun (a : Task.t) (b : Task.t) ->
          Q.compare (Task.density b) (Task.density a))
        sys
    in
    List.iter
      (fun (t : Task.t) ->
        (* Channels ordered by current load (ties: lower index), take the
           first whose shard stays plausibly feasible. *)
        let order =
          List.stable_sort
            (fun a b -> Q.compare (Density.density load.(a)) (Density.density load.(b)))
            (List.init channels Fun.id)
        in
        match List.find_opt (fun c -> Density.admits load.(c) t) order with
        | Some c ->
            load.(c) <- Density.add load.(c) t;
            Hashtbl.replace placed t.Task.id c
        | None -> ())
      by_density;
    let assignment =
      List.filter_map
        (fun (t : Task.t) ->
          Option.map (fun c -> (c, t)) (Hashtbl.find_opt placed t.Task.id))
        sys
    in
    let shed =
      List.filter (fun (t : Task.t) -> not (Hashtbl.mem placed t.Task.id)) sys
    in
    (assignment, shed)
  end

let empty_plan = lazy (Plan.progressions [])

(* Plan one shard, shedding its densest task on scheduler failure until
   something plans (the empty shard always does). *)
let rec plan_shard ?algorithm ~channel tasks shed =
  match tasks with
  | [] -> ({ channel; tasks = []; density = Q.zero; plan = Lazy.force empty_plan }, shed)
  | _ -> (
      match Scheduler.plan ?algorithm tasks with
      | Some plan ->
          ( { channel; tasks; density = Task.system_density tasks; plan },
            shed )
      | None ->
          let worst =
            List.fold_left
              (fun (acc : Task.t) (t : Task.t) ->
                let c = Q.compare (Task.density t) (Task.density acc) in
                if c > 0 || (c = 0 && t.Task.id > acc.Task.id) then t else acc)
              (List.hd tasks) (List.tl tasks)
          in
          plan_shard ?algorithm ~channel
            (List.filter (fun (t : Task.t) -> t.Task.id <> worst.Task.id) tasks)
            (worst :: shed))

let plan ?algorithm ~channels sys =
  let assignment, placement_shed = partition ~channels sys in
  let shards, sched_shed =
    List.fold_left
      (fun (shards, shed) channel ->
        let tasks =
          List.filter_map
            (fun (c, t) -> if c = channel then Some t else None)
            assignment
        in
        let shard, shed = plan_shard ?algorithm ~channel tasks shed in
        (shard :: shards, shed))
      ([], []) (List.init channels Fun.id)
  in
  let shed_ids =
    List.map (fun (t : Task.t) -> t.Task.id) (placement_shed @ sched_shed)
  in
  {
    channels;
    shards = List.rev shards;
    shed = List.filter (fun (t : Task.t) -> List.mem t.Task.id shed_ids) sys;
  }

let find_channel t id =
  List.find_map
    (fun s ->
      if List.exists (fun (tk : Task.t) -> tk.Task.id = id) s.tasks then
        Some s.channel
      else None)
    t.shards
