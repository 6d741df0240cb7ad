type t = { id : int; name : string; blocks : int; avi : int; value : int }

let make ?(value = 1) ~id ~name ~blocks ~avi () =
  if id < 0 then invalid_arg "Item.make: negative id";
  if blocks < 1 then invalid_arg "Item.make: blocks must be >= 1";
  if avi < 1 then invalid_arg "Item.make: avi must be >= 1";
  if value < 0 then invalid_arg "Item.make: negative value";
  { id; name; blocks; avi; value }

let avi_of_velocity ~velocity_kmh ~accuracy_m =
  if not (0.0 < velocity_kmh && velocity_kmh < infinity) then
    invalid_arg "Item.avi_of_velocity: velocity";
  if not (0.0 < accuracy_m && accuracy_m < infinity) then
    invalid_arg "Item.avi_of_velocity: accuracy";
  let meters_per_second = velocity_kmh *. 1000.0 /. 3600.0 in
  accuracy_m /. meters_per_second

let pp ppf t =
  Format.fprintf ppf "%s(id=%d, %d blocks, avi=%ds, value=%d)" t.name t.id
    t.blocks t.avi t.value
