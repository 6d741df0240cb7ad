module Aida = Pindisk_ida.Aida
module File_spec = Pindisk.File_spec

type t = {
  name : string;
  default : Aida.criticality;
  overrides : (string * Aida.criticality) list;
}

let make ?(default = Aida.Non_real_time) ~name overrides =
  let names = List.map fst overrides in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Mode.make: duplicate item names";
  { name; default; overrides }

let criticality t (item : Item.t) =
  match List.assoc_opt item.Item.name t.overrides with
  | Some c -> c
  | None -> t.default

let tolerance t item = Aida.redundancy (criticality t item)

let to_file_spec ?capacity t (item : Item.t) =
  File_spec.make ~name:item.Item.name ?capacity ~tolerance:(tolerance t item)
    ~id:item.Item.id ~blocks:item.Item.blocks ~latency:item.Item.avi ()

let file_specs ?capacity_for t items =
  List.map
    (fun item ->
      let capacity = Option.map (fun f -> f item) capacity_for in
      to_file_spec ?capacity t item)
    items

let max_tolerance modes item =
  List.fold_left (fun acc m -> max acc (tolerance m item)) 0 modes

