module Q = Pindisk_util.Q
module Bc = Pindisk_algebra.Bc
module Convert = Pindisk_algebra.Convert
module Task = Pindisk_pinwheel.Task
module Schedule = Pindisk_pinwheel.Schedule
module Plan = Pindisk_pinwheel.Plan
module Scheduler = Pindisk_pinwheel.Scheduler

type spec = { bc : Bc.t; capacity : int }

let spec ?capacity bc =
  let minimum = bc.Bc.m + Bc.faults_tolerated bc in
  let capacity = match capacity with Some c -> c | None -> minimum in
  if capacity < minimum then
    invalid_arg "Generalized.spec: capacity below m + r";
  if capacity > 255 then
    invalid_arg "Generalized.spec: capacity exceeds the 255-block IDA limit";
  { bc; capacity }

let compiled_density specs =
  Convert.compile (List.map (fun s -> s.bc) specs)
  |> List.map (fun (t, _) -> Task.density t)
  |> Q.sum

let density_lower_bound specs =
  Q.sum (List.map (fun s -> Bc.density_lower_bound s.bc) specs)

let program_certified specs =
  if specs = [] then invalid_arg "Generalized.program: no files";
  let bcs = List.map (fun s -> s.bc) specs in
  let compiled, traces = Convert.compile_certified bcs in
  match Scheduler.plan (List.map fst compiled) with
  | None -> None
  | Some plan ->
      (* Project pseudo-tasks onto their files. *)
      let file_of =
        let tbl = Hashtbl.create 16 in
        List.iter (fun (t, f) -> Hashtbl.replace tbl t.Task.id f) compiled;
        fun id ->
          match Hashtbl.find_opt tbl id with
          | Some f -> f
          | None -> Schedule.idle
      in
      let projected = Schedule.map_tasks (Plan.to_schedule plan) file_of in
      (* The conversion is heuristic; trust nothing, re-verify the original
         broadcast conditions on the projection. *)
      if List.exists (fun bc -> Bc.check projected bc <> None) bcs then None
      else
        Some
          ( Program.make ~schedule:projected
              ~capacities:(List.map (fun s -> (s.bc.Bc.file, s.capacity)) specs),
            traces )

let program specs = Option.map fst (program_certified specs)
