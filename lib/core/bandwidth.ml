module Q = Pindisk_util.Q
module Task = Pindisk_pinwheel.Task
module Scheduler = Pindisk_pinwheel.Scheduler

let demand files =
  Q.sum
    (List.map
       (fun f ->
         Q.make (f.File_spec.blocks + f.File_spec.tolerance) f.File_spec.latency)
       files)

let required files =
  if files = [] then invalid_arg "Bandwidth.required: no files";
  Q.ceil (Q.mul (Q.make 10 7) (demand files))

let tasks ~bandwidth files =
  List.map (fun f -> File_spec.to_task f ~bandwidth) files

let schedulable ~bandwidth files =
  match tasks ~bandwidth files with
  | exception Invalid_argument _ -> false
  | sys -> Scheduler.plan sys <> None

let minimum files =
  if files = [] then invalid_arg "Bandwidth.minimum: no files";
  let lo = max 1 (Q.ceil (demand files)) in
  let hi = 2 * required files in
  let rec scan b =
    if b > hi then None
    else
      match tasks ~bandwidth:b files with
      | exception Invalid_argument _ -> scan (b + 1)
      | sys -> (
          match Scheduler.plan sys with
          | Some _ -> Some b
          | None -> scan (b + 1))
  in
  scan lo

let overhead ~achieved files =
  let d = Q.to_float (demand files) in
  if d <= 0.0 then invalid_arg "Bandwidth.overhead: zero demand";
  float_of_int achieved /. d
