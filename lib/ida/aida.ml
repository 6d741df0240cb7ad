type criticality = Non_real_time | Standard | Important | Critical of int

let redundancy = function
  | Non_real_time -> 0
  | Standard -> 1
  | Important -> 2
  | Critical r ->
      if r < 0 then invalid_arg "Aida.redundancy: negative tolerance";
      r

type profile = (string * criticality) list

let criticality_in profile name =
  match List.assoc_opt name profile with
  | Some c -> c
  | None -> Non_real_time

let allocate ~m ~capacity c =
  if m < 1 || capacity < m || capacity > 255 then
    invalid_arg "Aida.allocate: need 1 <= m <= capacity <= 255";
  min capacity (m + redundancy c)

let transmit ida ~capacity c file =
  let m = Ida.m ida in
  let n = allocate ~m ~capacity c in
  (* Dispersal rows are independent of [n], so the [n] allocated pieces
     are exactly the prefix of the capacity-wide dispersal — encode only
     them instead of encoding [capacity] pieces and discarding the rest. *)
  Ida.disperse ida ~n file
