module Intmath = Pindisk_util.Intmath
module Q = Pindisk_util.Q

let to_chain ~x b =
  if x < 1 then invalid_arg "Specialize.to_chain: x must be >= 1";
  if b < x then None
  else begin
    (* Largest x * 2^k <= b. *)
    let v = ref x in
    while !v <= b / 2 && !v * 2 <= b do
      v := !v * 2
    done;
    Some !v
  end

(* Share sizes summed per chain exponent in integers, then one rational
   per exponent: [b] specializes to [x·2^k] with [k = floor_log2 (b/x)]. *)
let specialized_density ~x sys =
  if x < 1 then invalid_arg "Specialize.specialized_density: x must be >= 1";
  if List.exists (fun t -> t.Task.b < x) sys then None
  else begin
    let shares = Array.make Sys.int_size 0 in
    List.iter
      (fun t ->
        let k = Intmath.floor_log2 (t.Task.b / x) in
        shares.(k) <- shares.(k) + t.Task.a)
      sys;
    let d = ref Q.zero in
    Array.iteri
      (fun k a -> if a > 0 then d := Q.add !d (Q.make a (x lsl k)))
      shares;
    Some !d
  end

(* The distinct values [floor (b_i / 2^j)] not exceeding the smallest
   window, and 1, descending. *)
let candidate_bases sys =
  match List.sort_uniq compare (List.map (fun t -> t.Task.b) sys) with
  | [] -> [ 1 ]
  | b_min :: _ as windows ->
      let rec halvings acc v =
        if v < 1 then acc else halvings (if v <= b_min then v :: acc else acc) (v / 2)
      in
      List.sort_uniq (fun a b -> compare b a) (List.fold_left halvings [ 1 ] windows)

let plan_with_base ~x sys =
  match Task.check_system sys with
  | Error _ -> None
  | Ok () -> (
      if sys = [] then None
      else
        let units = Task.decompose_units sys in
        let specialized =
          List.map
            (fun (key, b) ->
              match to_chain ~x b with
              | Some b' -> Some (key, b')
              | None -> None)
            units
        in
        if List.exists (fun o -> o = None) specialized then None
        else
          let pairs = List.filter_map (fun o -> o) specialized in
          match Harmonic.pack ~x pairs with
          | None -> None
          | Some assignments -> (
              match
                Plan.progressions
                  (List.map
                     (fun (a : Harmonic.assignment) ->
                       { Plan.key = a.key; offset = a.offset; period = a.period })
                     assignments)
              with
              | exception Intmath.Overflow -> None
              | plan -> if Verify.satisfies_plan plan sys then Some plan else None))

let sa_plan sys = plan_with_base ~x:1 sys

let best_base sys =
  let feasible =
    List.filter_map
      (fun x ->
        match specialized_density ~x sys with
        | Some d when Q.( <= ) d Q.one -> Some (x, d)
        | _ -> None)
      (candidate_bases sys)
  in
  match feasible with
  | [] -> None
  | (x0, d0) :: rest ->
      let x, _ =
        List.fold_left
          (fun (bx, bd) (x, d) -> if Q.( < ) d bd then (x, d) else (bx, bd))
          (x0, d0) rest
      in
      Some x

let sx_base sys = best_base sys

let sx_plan sys =
  match best_base sys with
  | None -> None
  | Some x -> plan_with_base ~x sys
