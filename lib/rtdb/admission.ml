module Q = Pindisk_util.Q
module Shard = Pindisk.Shard
module Bandwidth = Pindisk.Bandwidth

type verdict = {
  admitted : Item.t list;
  rejected : Item.t list;
  program : Pindisk.Program.t option;
}

let demand ~mode (item : Item.t) =
  Q.make (item.Item.blocks + Mode.tolerance mode item) item.Item.avi

let value_density ~mode item =
  let d = Q.to_float (demand ~mode item) in
  float_of_int item.Item.value /. d

let admit ~bandwidth ~mode items =
  if bandwidth < 1 then invalid_arg "Admission.admit: bandwidth must be >= 1";
  let ids = List.map (fun i -> i.Item.id) items in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Admission.admit: duplicate item ids";
  let ranked =
    List.sort
      (fun a b ->
        match compare (value_density ~mode b) (value_density ~mode a) with
        | 0 -> compare b.Item.value a.Item.value
        | c -> c)
      items
  in
  let admitted, rejected =
    List.fold_left
      (fun (acc, rej) item ->
        let candidate = item :: acc in
        let specs = Mode.file_specs mode (List.rev candidate) in
        if Bandwidth.schedulable ~bandwidth specs then (candidate, rej)
        else (acc, item :: rej))
      ([], []) ranked
  in
  let admitted = List.rev admitted and rejected = List.rev rejected in
  let program =
    match admitted with
    | [] -> None
    | _ ->
        Result.to_option
          (Shard.design ~channels:1 ~bandwidth (Mode.file_specs mode admitted))
        |> Fun.flip Option.bind Shard.program
  in
  { admitted; rejected; program }
