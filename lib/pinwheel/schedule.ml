module Q = Pindisk_util.Q

let idle = -1

type t = { period : int; slots : int array }

let adopt slots =
  if Array.length slots = 0 then invalid_arg "Schedule.make: empty period";
  Array.iter
    (fun v -> if v < -1 then invalid_arg "Schedule.make: bad slot value")
    slots;
  { period = Array.length slots; slots }

let make slots = adopt (Array.copy slots)

let period s = s.period

let task_at s t =
  if t < 0 then invalid_arg "Schedule.task_at: negative slot";
  s.slots.(t mod s.period)

let occurrences s i =
  let acc = ref [] in
  for t = s.period - 1 downto 0 do
    if s.slots.(t) = i then acc := t :: !acc
  done;
  !acc

let count s i =
  let n = ref 0 in
  for t = 0 to s.period - 1 do
    if s.slots.(t) = i then incr n
  done;
  !n

let fold_occurrences s i f init =
  let acc = ref init in
  for t = 0 to s.period - 1 do
    if s.slots.(t) = i then acc := f !acc t
  done;
  !acc

let task_ids s =
  Array.to_list s.slots
  |> List.filter (fun v -> v <> idle)
  |> List.sort_uniq Stdlib.compare

let utilization s =
  let busy = Array.fold_left (fun n v -> if v = idle then n else n + 1) 0 s.slots in
  Q.make busy s.period

let max_gap s i =
  (* Single pass: track the first and the previous occurrence; the wrap
     gap closes the cycle. A lone occurrence yields first = prev, so the
     wrap gap is exactly the period. *)
  let first = ref (-1) and prev = ref (-1) and acc = ref 0 in
  for t = 0 to s.period - 1 do
    if s.slots.(t) = i then begin
      if !first < 0 then first := t else acc := max !acc (t - !prev);
      prev := t
    end
  done;
  if !first < 0 then None else Some (max !acc (!first + s.period - !prev))

let map_tasks s f =
  {
    period = s.period;
    slots = Array.map (fun v -> if v = idle then idle else f v) s.slots;
  }

let pp ppf s =
  Array.iteri
    (fun t v ->
      if t > 0 then Format.fprintf ppf " ";
      if v = idle then Format.fprintf ppf "." else Format.fprintf ppf "%d" v)
    s.slots
