module Q = Pindisk_util.Q

type t = { id : int; a : int; b : int }

let make ~id ~a ~b =
  if id < 0 then invalid_arg "Task.make: negative id";
  if a < 1 || b < a then invalid_arg "Task.make: need 1 <= a <= b";
  { id; a; b }

let unit ~id ~b = make ~id ~a:1 ~b
let density t = Q.make t.a t.b
let pp ppf t = Format.fprintf ppf "(%d, %d, %d)" t.id t.a t.b

type system = t list

let check_system sys =
  let ids = List.map (fun t -> t.id) sys in
  let sorted = List.sort_uniq Stdlib.compare ids in
  if List.length sorted <> List.length ids then
    Error "duplicate task ids in system"
  else Ok ()

let system_density sys = Q.sum (List.map density sys)
let is_unit_system sys = List.for_all (fun t -> t.a = 1) sys

let decompose_units sys =
  List.concat_map (fun t -> List.init t.a (fun _ -> (t.id, t.b))) sys

let pp_system ppf sys =
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp) sys
