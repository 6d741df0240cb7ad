module Shard = Pindisk.Shard
module Bandwidth = Pindisk.Bandwidth

type t = { items : Item.t list; modes : Mode.t list }

let create ~items ~modes =
  if items = [] then invalid_arg "Database.create: no items";
  if modes = [] then invalid_arg "Database.create: no modes";
  let distinct proj what l =
    if List.length (List.sort_uniq compare (List.map proj l)) <> List.length l
    then invalid_arg ("Database.create: duplicate " ^ what)
  in
  distinct (fun i -> i.Item.id) "item ids" items;
  distinct (fun i -> i.Item.name) "item names" items;
  distinct (fun (m : Mode.t) -> m.Mode.name) "mode names" modes;
  { items; modes }

let mode t name = List.find_opt (fun (m : Mode.t) -> m.Mode.name = name) t.modes

let provisioned_capacity t (item : Item.t) =
  item.Item.blocks + Mode.max_tolerance t.modes item

let file_specs t ~mode =
  Mode.file_specs ~capacity_for:(provisioned_capacity t) mode t.items

let required_bandwidth t ~mode = Bandwidth.required (file_specs t ~mode)

let program t ~mode =
  let specs = file_specs t ~mode in
  Option.bind (Bandwidth.minimum specs) (fun bandwidth ->
      Result.to_option (Shard.design ~channels:1 ~bandwidth specs)
      |> Fun.flip Option.bind Shard.program
      |> Option.map (fun program -> (bandwidth, program)))
