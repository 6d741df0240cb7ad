module Q = Pindisk_util.Q
module Intmath = Pindisk_util.Intmath
module Task = Pindisk_pinwheel.Task

let src = Logs.Src.create "pindisk.algebra" ~doc:"Pinwheel algebra conversions"

module Log = (val Logs.src_log src : Logs.LOG)

type entry = { a : int; b : int; file : int }
type nice = entry list

let density nice = Q.sum (List.map (fun e -> Q.make e.a e.b) nice)

(* Conditions of a bc, as anonymous (count, window) pairs. *)
let conds (bc : Bc.t) =
  List.map (fun t -> (t.Task.a, t.Task.b)) (Bc.to_pcs bc)

let pc (a, b) = Task.make ~id:0 ~a ~b

let trace_of (bc : Bc.t) transform nice steps =
  Trace.make ~file:bc.Bc.file ~m:bc.Bc.m ~d:bc.Bc.d ~transform
    ~nice:(List.map (fun e -> { Trace.a = e.a; b = e.b }) nice)
    ~steps

(* Witness scale for an implication the producer has already established. *)
let scale_exn got want =
  match Rules.implies_scale got want with
  | Some n -> n
  | None -> assert false

(* One Implies step per fault level, all from the single emitted entry —
   the shape TR1, the single-condition search and the simple-model
   reduction share. *)
let fan_out_steps got cs =
  List.map
    (fun (c, e) ->
      Trace.Implies
        {
          premise = Trace.Emitted 0;
          scale = scale_exn got (pc (c, e));
          target = { Trace.a = c; b = e };
        })
    cs

let tr1_certified (bc : Bc.t) =
  let cs = conds bc in
  let w = Intmath.min_list (List.map (fun (c, e) -> e / c) cs) in
  let nice = [ { a = 1; b = w; file = bc.Bc.file } ] in
  (nice, trace_of bc "TR1" nice (fan_out_steps (pc (1, w)) cs))

let tr1 bc = fst (tr1_certified bc)

let tr2_certified (bc : Bc.t) =
  let file = bc.Bc.file in
  match conds bc with
  | [] -> assert false (* Bc invariant: d is non-empty *)
  | base_cond :: rest ->
      let base = pc base_cond in
      let reduced = Rules.r1_reduce base in
      (* Step 0 re-derives the original base condition (m, d^(0)) from the
         emitted R1-reduced entry; the gcd is the scaling witness. *)
      let steps = ref [] and nsteps = ref 0 in
      let push_step s =
        steps := s :: !steps;
        incr nsteps;
        !nsteps - 1
      in
      let aliases = ref [] and nentries = ref 1 in
      let emit e =
        aliases := e :: !aliases;
        incr nentries;
        !nentries - 1
      in
      ignore
        (push_step
           (Trace.Implies
              {
                premise = Trace.Emitted 0;
                scale = scale_exn reduced base;
                target = { Trace.a = base.Task.a; b = base.Task.b };
              }));
      (* Walk the fault levels; [prev] is the already-guaranteed condition
         (m+j-1, d^(j-1)) that rule R4 chains on, [prev_src] the step that
         concluded it. *)
      let prev = ref base and prev_src = ref (Trace.Derived 0) in
      List.iter
        (fun cond ->
          let target = pc cond in
          let tcond = { Trace.a = target.Task.a; b = target.Task.b } in
          (if Rules.implies !prev target then
             ignore
               (push_step
                  (Trace.Implies
                     {
                       premise = !prev_src;
                       scale = scale_exn !prev target;
                       target = tcond;
                     }))
           else if Rules.implies reduced target then
             ignore
               (push_step
                  (Trace.Implies
                     {
                       premise = Trace.Emitted 0;
                       scale = scale_exn reduced target;
                       target = tcond;
                     }))
           else begin
             (* Candidate aliases, each paired with the step justifying it. *)
             let options =
               List.filter_map
                 (fun o -> o)
                 [
                   (* R4 on the accumulated guarantee: the (1, d^(j)) alias
                      of the literal TR2. *)
                   (match Rules.r4_alias ~base:!prev ~target with
                   | None -> None
                   | Some alias ->
                       let guaranteed = !prev.Task.a and base_src = !prev_src in
                       Some
                         ( alias,
                           fun alias_src ->
                             Trace.Conjoin
                               {
                                 base = base_src;
                                 guaranteed;
                                 scale = 1;
                                 alias = alias_src;
                                 target = tcond;
                               } ));
                   (* R5 on the R1-reduced base (Example 4's trick). *)
                   (match Rules.r5_alias ~base:reduced ~target with
                   | None -> None
                   | Some alias ->
                       let n = Intmath.ceil_div target.Task.a reduced.Task.a in
                       Some
                         ( alias,
                           fun alias_src ->
                             Trace.Align
                               {
                                 base = Trace.Emitted 0;
                                 scale = n;
                                 alias = alias_src;
                                 target = tcond;
                               } ));
                   (* R4 on what the base alone forces into this window. *)
                   (let g =
                      Rules.max_guaranteed reduced ~window:target.Task.b
                    in
                    if g >= target.Task.a then None
                    else
                      Some
                        ( (target.Task.a - g, target.Task.b),
                          fun alias_src ->
                            Trace.Conjoin
                              {
                                base = Trace.Emitted 0;
                                guaranteed = g;
                                scale =
                                  (if g = 0 then 1
                                   else Intmath.ceil_div g reduced.Task.a);
                                alias = alias_src;
                                target = tcond;
                              } ));
                 ]
             in
             let cheapest =
               match options with
               | [] -> assert false (* the third option always applies here *)
               | o :: os ->
                   List.fold_left
                     (fun (((ba, bb), _) as best) (((a, b), _) as cand) ->
                       if Q.( < ) (Q.make a b) (Q.make ba bb) then cand
                       else best)
                     o os
             in
             let (a, b), mk_step = cheapest in
             let k = emit { a; b; file } in
             ignore (push_step (mk_step (Trace.Emitted k)))
           end);
          prev := target;
          prev_src := Trace.Derived (!nsteps - 1))
        rest;
      (* Emit the R1-reduced base: same density, and it is the condition the
         R5 option relies on (reduced implies the original base by R1). *)
      let nice =
        { a = reduced.Task.a; b = reduced.Task.b; file } :: List.rev !aliases
      in
      (nice, trace_of bc "TR2" nice (List.rev !steps))

let tr2 bc = fst (tr2_certified bc)

let best_single_certified (bc : Bc.t) =
  let cs = conds bc in
  let file = bc.Bc.file in
  let max_b = Intmath.max_list (List.map snd cs) in
  (* Minimal count a making pc(a, b) imply cond (c, e): minimize over the
     scaling factor n of max(ceil(c/n), b - floor((e-c)/n)). *)
  let min_a_for b (c, e) =
    let best = ref (b + 1) in
    for n = 1 to c do
      let lo = Intmath.ceil_div c n in
      let hi_constraint = b - ((e - c) / n) in
      let a = max lo hi_constraint in
      let a = max a 1 in
      if a <= b && a < !best then
        (* The algebraic bound can be off by rounding; confirm. *)
        if Rules.implies (pc (a, b)) (pc (c, e)) then best := a
    done;
    !best
  in
  let fallback =
    let k = Intmath.max_list (List.map fst cs) in
    { a = k; b = k; file }
  in
  let best = ref fallback in
  for b = 1 to max_b do
    let a = Intmath.max_list (List.map (min_a_for b) cs) in
    if a <= b && Q.( < ) (Q.make a b) (Q.make !best.a !best.b) then
      best := { a; b; file }
  done;
  let e = !best in
  ([ e ], trace_of bc "single" [ e ] (fan_out_steps (pc (e.a, e.b)) cs))

let best_single bc = fst (best_single_certified bc)

let best_certified bc =
  let candidates =
    [
      ("TR1", tr1_certified bc);
      ("TR2", tr2_certified bc);
      ("single", best_single_certified bc);
    ]
  in
  Log.debug (fun m ->
      m "converting %a: %s (lower bound %a)" Bc.pp bc
        (String.concat ", "
           (List.map
              (fun (l, (n, _)) ->
                Printf.sprintf "%s=%s" l (Q.to_string (density n)))
              candidates))
        Q.pp (Bc.density_lower_bound bc));
  match candidates with
  | c :: cs ->
      let label, (nice, trace) =
        List.fold_left
          (fun ((_, (bn, _)) as best) ((_, (n, _)) as cand) ->
            if Q.( < ) (density n) (density bn) then cand else best)
          c cs
      in
      (label, nice, trace)
  | [] -> assert false

let best bc =
  let label, nice, _ = best_certified bc in
  (label, nice)

let compile_certified bcs =
  let files = List.map (fun (bc : Bc.t) -> bc.Bc.file) bcs in
  if List.length (List.sort_uniq compare files) <> List.length files then
    invalid_arg "Convert.compile: duplicate file ids";
  let next = ref (1 + List.fold_left max (-1) files) in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let compiled =
    List.map
      (fun bc ->
        let _, nice, trace = best_certified bc in
        ( List.map
            (fun e -> (Task.make ~id:(fresh ()) ~a:e.a ~b:e.b, e.file))
            nice,
          trace ))
      bcs
  in
  (List.concat_map fst compiled, List.map snd compiled)

let compile bcs = fst (compile_certified bcs)
