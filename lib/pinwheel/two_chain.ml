module Intmath = Pindisk_util.Intmath
module Q = Pindisk_util.Q

type split = { c : int; d : int }

(* The A-dedication test lives in {!Plan.merge}, so eager, online and
   verifying consumers share it. *)

let virtual_window split b =
  if b < 1 then invalid_arg "Two_chain.virtual_window: window must be >= 1";
  let { c; d } = split in
  (* A-slots per window of length b starting at offset o, exact:
     floor((o+b)c/d) - floor(o*c/d); minimize over one pattern period. *)
  let best = ref max_int in
  for o = 0 to d - 1 do
    let cnt = ((o + b) * c / d) - (o * c / d) in
    if cnt < !best then best := cnt
  done;
  !best

let complement { c; d } = { c = d - c; d }

(* Pack one group on its virtual timeline: specialize the virtual windows
   with the group's best base, then place with Harmonic. Returns the
   group's dispatch plan (progressions over the virtual timeline). *)
let pack_group units =
  match units with
  | [] -> Some (Plan.progressions []) (* all idle, period 1 *)
  | _ ->
      let sys =
        (* Re-wrap as a unit system for Specialize; keys may repeat, so use
           positional pseudo-ids and map back through the assignments. *)
        List.mapi (fun i (_, w) -> Task.unit ~id:i ~b:w) units
      in
      let keys = Array.of_list (List.map fst units) in
      (match Specialize.sx_base sys with
      | None -> None
      | Some x -> (
          let pairs =
            List.map
              (fun t ->
                match Specialize.to_chain ~x t.Task.b with
                | Some b' -> (t.Task.id, b')
                | None -> assert false (* sx_base guarantees b >= x *))
              sys
          in
          match Harmonic.pack ~x pairs with
          | None -> None
          | Some assignments ->
              Some
                (Plan.progressions
                   (List.map
                      (fun (a : Harmonic.assignment) ->
                        {
                          Plan.key = keys.(a.key);
                          offset = a.offset;
                          period = a.period;
                        })
                      assignments))))

let merge_plans split plan_a plan_b ~max_period =
  let pa = Plan.period plan_a and pb = Plan.period plan_b in
  match Intmath.lcm pa pb with
  | exception Intmath.Overflow -> None
  | m ->
      if m > max_period / split.d then None
      else Some (Plan.merge ~c:split.c ~d:split.d plan_a plan_b)

let try_combo sys units_a units_b split ~max_period =
  let shrink split units =
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | (key, b) :: rest ->
          let w = virtual_window split b in
          if w < 1 then None else go ((key, w) :: acc) rest
    in
    go [] units
  in
  match (shrink split units_a, shrink (complement split) units_b) with
  | Some va, Some vb -> (
      match (pack_group va, pack_group vb) with
      | Some pa, Some pb -> (
          match merge_plans split pa pb ~max_period with
          | Some plan when Verify.satisfies_plan plan sys -> Some plan
          | _ -> None)
      | _ -> None)
  | _ -> None

(* The longest merged period the search accepts. *)
let max_period = 4_000_000

let plan sys =
  match Task.check_system sys with
  | Error _ -> None
  | Ok () -> (
      if sys = [] then None
      else
        let units =
          List.sort (fun (_, b1) (_, b2) -> compare b1 b2) (Task.decompose_units sys)
        in
        let windows = List.sort_uniq compare (List.map snd units) in
        match windows with
        | [] | [ _ ] -> None (* a single scale: the single-chain Sx case *)
        | _ ->
            let density = Task.system_density sys in
            let thresholds =
              (* Split between consecutive distinct windows. *)
              let rec pairs = function
                | a :: (b :: _ as rest) -> (a, b) :: pairs rest
                | _ -> []
              in
              List.map fst (pairs windows)
            in
            let exception Found of Plan.t in
            (try
               List.iter
                 (fun thr ->
                   let units_a, units_b =
                     List.partition (fun (_, b) -> b <= thr) units
                   in
                   if units_a <> [] && units_b <> [] then begin
                     let da =
                       Q.sum (List.map (fun (_, b) -> Q.make 1 b) units_a)
                     in
                     let ratio =
                       if Q.equal density Q.zero then Q.make 1 2
                       else Q.div da density
                     in
                     List.iter
                       (fun d ->
                         let ideal =
                           Q.to_float ratio *. float_of_int d |> Float.round
                           |> int_of_float
                         in
                         List.iter
                           (fun c ->
                             if c >= 1 && c < d then
                               match
                                 try_combo sys units_a units_b { c; d } ~max_period
                               with
                               | Some plan -> raise (Found plan)
                               | None -> ())
                           [ ideal; ideal + 1; ideal - 1 ])
                       [ 2; 3; 4; 5; 6; 8; 10; 12 ]
                   end)
                 thresholds;
               None
             with Found plan -> Some plan))
