module Intmath = Pindisk_util.Intmath

type column = { mutable members : int list (* keys, reversed *); mutable min_window : int }

let assign ~g units =
  if g < 1 then invalid_arg "Rotation.assign: g must be >= 1";
  let sorted = List.sort (fun (_, b1) (_, b2) -> compare b1 b2) units in
  let columns = Array.init g (fun _ -> { members = []; min_window = max_int }) in
  let place (key, b) =
    (* First fit: a column accepts the task iff the round-robin period
       after joining, g * (size + 1), still fits the column's tightest
       window (windows arrive in ascending order, so the tightest is
       already there). *)
    let rec go c =
      if c >= g then false
      else
        let col = columns.(c) in
        let size = List.length col.members in
        let limit = min col.min_window b in
        if g * (size + 1) <= limit then begin
          col.members <- key :: col.members;
          col.min_window <- limit;
          true
        end
        else go (c + 1)
    in
    go 0
  in
  let rec run = function
    | [] ->
        Some
          (Array.to_list columns
          |> List.mapi (fun c col ->
                 let members = List.rev col.members in
                 let k = List.length members in
                 List.map (fun key -> (key, c, k)) members)
          |> List.concat)
    | u :: rest -> if place u then run rest else None
  in
  run sorted

let plan_with_base ~g sys =
  match Task.check_system sys with
  | Error _ -> None
  | Ok () -> (
      let units = Task.decompose_units sys in
      match assign ~g units with
      | None -> None
      | Some placements ->
          (* Column c with k members has round-robin period g*k; member j
             occupies exactly the slots ≡ c + g·j (mod g·k) — an
             arithmetic progression, so the whole rotation is a
             progression plan of period g * lcm of the class sizes. *)
          let sizes =
            List.sort_uniq compare (List.map (fun (_, _, k) -> k) placements)
          in
          let sizes = if sizes = [] then [ 1 ] else sizes in
          (match Intmath.lcm_list sizes with
          | exception Intmath.Overflow -> None
          | l when l > 1_000_000 -> None
          | _ ->
              (* Rebuild per-column member order: [assign] lists columns in
                 order, members in first-fit order within each column. *)
              let progs = ref [] in
              List.iter
                (fun c ->
                  let members =
                    List.filter (fun (_, c', _) -> c' = c) placements
                    |> List.map (fun (key, _, _) -> key)
                  in
                  let k = List.length members in
                  List.iteri
                    (fun j key ->
                      progs :=
                        { Plan.key; offset = c + (g * j); period = g * k }
                        :: !progs)
                    members)
                (List.init g (fun c -> c));
              let plan =
                if !progs = [] then
                  (* No units: the all-idle schedule, period g as before. *)
                  Plan.explicit (Schedule.make (Array.make g Schedule.idle))
                else Plan.progressions (List.rev !progs)
              in
              if Verify.satisfies_plan plan sys then Some plan else None))

let plan sys =
  match sys with
  | [] -> None
  | _ ->
      let min_b = List.fold_left (fun acc t -> min acc t.Task.b) max_int sys in
      let rec go g =
        if g < 1 then None
        else
          match plan_with_base ~g sys with
          | Some p -> Some p
          | None -> go (g - 1)
      in
      go min_b
