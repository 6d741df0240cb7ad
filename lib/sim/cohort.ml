module Program = Pindisk.Program
module Intmath = Pindisk_util.Intmath
module Pool = Pindisk_util.Pool
module Obs = Pindisk_obs

let sinks = Retire.sinks ~prefix:"cohort"
let obs_classes = Obs.Registry.counter "cohort.classes"
let obs_members = Obs.Registry.counter "cohort.members"
let obs_swept = Obs.Registry.counter "cohort.swept"
let obs_analytic = Obs.Registry.counter "cohort.analytic"
let obs_laws = Obs.Registry.counter "cohort.laws"

type key = { file : int; phase : int; needed : int; deadline : int }
type cls = { key : key; weight : int }

(* Field by field, in declaration order: the order polymorphic [compare]
   gives a key, without its per-field dispatch. *)
let compare_key a b =
  let c = Int.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.phase b.phase in
    if c <> 0 then c
    else
      let c = Int.compare a.needed b.needed in
      if c <> 0 then c else Int.compare a.deadline b.deadline

let key_of_request ~period (r : Workload.request) =
  {
    file = r.Workload.file;
    phase = r.Workload.issued mod period;
    needed = r.Workload.needed;
    deadline = r.Workload.deadline;
  }

(* Why this key suffices: the broadcast repeats every period, block
   indices cycle (global occurrence count mod capacity), and each client
   owns an independent fault process. Two requests with the same (file,
   issued mod period) see their file at the same slot distances d and at
   block indices differing only by a constant shift mod capacity — and a
   constant shift is a bijection on residues, so the number of distinct
   blocks after any prefix of successes is identical. Completion time
   and losses therefore depend only on (file, phase, needed) plus the
   member's own fault draws, and deadline classification adds the last
   component. *)
let classes_of_trace ~period trace =
  if period < 1 then invalid_arg "Cohort.classes_of_trace: period must be >= 1";
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Workload.request) ->
      if r.Workload.issued < 0 then
        invalid_arg "Cohort.classes_of_trace: negative start";
      let key = key_of_request ~period r in
      Hashtbl.replace tbl key
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    trace;
  Hashtbl.fold (fun key weight acc -> { key; weight } :: acc) tbl []
  |> List.sort (fun a b -> compare_key a.key b.key)

type model =
  | No_loss
  | Bernoulli of { p : float }
  | Burst of {
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_good : float;
      loss_bad : float;
    }

let fault_of_model model ~seed =
  match model with
  | No_loss -> Fault.none ()
  | Bernoulli { p } -> Fault.bernoulli ~p ~seed
  | Burst { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      Fault.burst ~p_good_to_bad ~p_bad_to_good ~loss_good ~loss_bad ~seed

let loss_rate_of_model model =
  Fault.loss_rate (fault_of_model model ~seed:0)

(* Content-derived class tag: members of the same class draw the same
   fault streams no matter how the class list was produced. *)
let class_tag ~seed k =
  let m = Intmath.mix64 in
  m (m (m (m (seed + k.file) + k.phase) + k.needed) + k.deadline)

(* The default window, 100 data cycles, lets every file's block phase
   realign with slot 0 many times over. *)
let window ~who ?max_slots program =
  match max_slots with
  | Some m when m < 1 -> invalid_arg (who ^ ": max_slots must be >= 1")
  | Some m -> m
  | None -> Program.data_cycles program 100

let check_request ~who program ~file ~needed =
  if needed < 1 then invalid_arg (who ^ ": needed must be >= 1");
  let cap =
    match Program.capacity program file with
    | n -> n
    | exception Not_found -> invalid_arg (who ^ ": file not in the program")
  in
  if needed > cap then
    invalid_arg (who ^ ": needed exceeds the file's capacity");
  if Program.occurrences_per_period program file = 0 then
    invalid_arg (who ^ ": file never broadcast")

(* The index of the first of [offs] (ascending) at or after [phase];
   [Array.length offs] if there is none. *)
let first_from offs phase =
  let lo = ref 0 and hi = ref (Array.length offs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if offs.(mid) < phase then lo := mid + 1 else hi := mid
  done;
  !lo

(* One tuned channel of one member's retrieval, and where the sweep is
   on it: [next] is the relative slot of the lane's next own-file
   occurrence and [idx] its index in [offs], [heard] counts the slots
   its fault has passed, and [ord] is the residue (mod [cap]) of the
   occurrence's ordinal. A lane is used up by the sweep it is handed
   to. *)
type lane = {
  offs : int array;
  period : int;
  cap : int;
  fault : Fault.t;
  seen : bool array;
  mutable next : int;
  mutable idx : int;
  mutable heard : int;
  mutable ord : int;
}

let lane program ~file ~issued fault =
  let cap = Program.capacity program file in
  let offs = Program.offsets program file in
  let period = Program.period program in
  let phase = issued mod period in
  let occ = Array.length offs in
  let i = first_from offs phase in
  let next, idx =
    if occ = 0 then (max_int, 0)
    else if i < occ then (offs.(i) - phase, i)
    else (offs.(0) + period - phase, 0)
  in
  { offs; period; cap; fault; seen = Array.make cap false; next; idx;
    heard = 0; ord = 0 }

(* One member's retrieval, equal to [Client.retrieve]'s per-slot walk on
   every lane at once but visiting only the slots some lane airs the
   file in. Each step takes the earliest next occurrence [d] over the
   lanes; every lane airing at [d] skips its fault (already reset to
   the issue slot) over the silent slots since it last heard, which is
   free because a verdict is a function of its slot, and takes slot
   [d]'s verdict: the piece is lost or collected. A lane collects
   distinct residues of its relative occurrence ordinal mod its
   capacity — a constant shift of the block index it airs, so the
   distinct count (and hence completion slot and losses) matches the
   per-slot walk exactly, and lanes add up because their pieces are
   disjoint. Every lane airing in the
   completing slot still counts. Returns (elapsed, losses, slots
   swept). *)
let sweep ~needed ~max_slots lanes =
  let n = Array.length lanes in
  let distinct = ref 0 and losses = ref 0 and d = ref 0 and going = ref true in
  while !going do
    d := max_int;
    for c = 0 to n - 1 do
      if lanes.(c).next < !d then d := lanes.(c).next
    done;
    let d = !d in
    if d >= max_slots then going := false
    else begin
      for c = 0 to n - 1 do
        let l = lanes.(c) in
        if l.next = d then begin
          Fault.skip l.fault (d - l.heard);
          l.heard <- d + 1;
          (if Fault.advance l.fault then incr losses
           else if not l.seen.(l.ord) then begin
             l.seen.(l.ord) <- true;
             incr distinct
           end);
          l.ord <- (if l.ord + 1 = l.cap then 0 else l.ord + 1);
          let i = if l.idx + 1 = Array.length l.offs then 0 else l.idx + 1 in
          let gap = l.offs.(i) - l.offs.(l.idx) in
          l.next <- (d + if gap > 0 then gap else gap + l.period);
          l.idx <- i
        end
      done;
      if !distinct >= needed then going := false
    end
  done;
  if !distinct >= needed then (Some (!d + 1), !losses, !d + 1)
  else (None, !losses, max 0 max_slots)

let for_classes ?pool ~n f =
  match pool with
  | Some pool -> Pool.parallel_for pool ~n f
  | None ->
      for i = 0 to n - 1 do
        f i
      done

(* Per-class outcome histogram -> retirement rows: completions ascending
   by elapsed, then the expired bucket; the class's total losses ride on
   the first row (Retire sums row losses without weighting them). *)
let rows_of_hist ~file ~deadline elapsed_counts ~expired ~losses =
  let entries =
    Hashtbl.fold (fun e c acc -> (e, c) :: acc) elapsed_counts []
    |> List.sort compare
  in
  let rows =
    List.map
      (fun (e, c) ->
        { Retire.file; deadline; elapsed = Some e; weight = c; losses = 0 })
      entries
  in
  let rows =
    if expired > 0 then
      rows
      @ [ { Retire.file; deadline; elapsed = None; weight = expired; losses = 0 } ]
    else rows
  in
  match rows with
  | [] -> []
  | first :: rest -> { first with Retire.losses } :: rest

(* ---- Trace mode: exact per-client replay, class-shared sweep ---- *)

let run ?max_slots ~program ~fault ~seed trace =
  let who = "Cohort.run" in
  let max_slots = window ~who ?max_slots program in
  let period = Program.period program in
  List.iter
    (fun (r : Workload.request) ->
      if r.Workload.issued < 0 then invalid_arg (who ^ ": negative start");
      check_request ~who program ~file:r.Workload.file ~needed:r.Workload.needed)
    trace;
  let reqs = Array.of_list trace in
  let n = Array.length reqs in
  (* Group member trace-indices by class; members stay in trace order. *)
  let groups : (key, int list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun k r ->
      let key = key_of_request ~period r in
      match Hashtbl.find_opt groups key with
      | Some l -> l := k :: !l
      | None -> Hashtbl.add groups key (ref [ k ]))
    reqs;
  let classes =
    Hashtbl.fold (fun key members acc -> (key, List.rev !members) :: acc) groups []
    |> List.sort (fun (a, _) (b, _) -> compare_key a b)
    |> Array.of_list
  in
  let outcomes = Array.make n (None, 0) in
  let obs = Obs.Control.enabled () in
  for_classes ~n:(Array.length classes) (fun ci ->
      let key, members = classes.(ci) in
      let swept = ref 0 in
      List.iter
        (fun k ->
          let f = fault ~seed:(Intmath.mix64 (seed + k)) in
          Fault.reset_to f reqs.(k).Workload.issued;
          let elapsed, losses, d =
            sweep ~needed:key.needed ~max_slots
              [| lane program ~file:key.file ~issued:key.phase f |]
          in
          outcomes.(k) <- (elapsed, losses);
          swept := !swept + d)
        members;
      if obs then Obs.Registry.add obs_swept !swept);
  if obs then begin
    Obs.Registry.add obs_classes (Array.length classes);
    Obs.Registry.add obs_members n
  end;
  Retire.retire ~sinks
    (List.init n (fun k ->
         let elapsed, losses = outcomes.(k) in
         {
           Retire.file = reqs.(k).Workload.file;
           deadline = reqs.(k).Workload.deadline;
           elapsed;
           weight = 1;
           losses;
         }))

(* ---- Population mode: closed-form class list ---- *)

(* Canonical order + merged duplicates: the result is invariant under
   any permutation or split of the input class list. *)
let canonicalize ~who classes =
  let live =
    Array.of_list
      (List.filter
         (fun c ->
           if c.weight < 0 then invalid_arg (who ^ ": negative class weight");
           c.weight > 0)
         classes)
  in
  Array.stable_sort (fun a b -> compare_key a.key b.key) live;
  (* Fold each run of one key into its first slot. *)
  let n = ref 0 in
  Array.iter
    (fun c ->
      if !n > 0 && compare_key live.(!n - 1).key c.key = 0 then
        live.(!n - 1) <- { c with weight = live.(!n - 1).weight + c.weight }
      else begin
        live.(!n) <- c;
        incr n
      end)
    live;
  Array.sub live 0 !n

(* The own-file ordinals a member issued at [phase] hears within
   [max_slots] slots: whole periods, then the offsets in the cyclic
   interval [phase, phase + max_slots mod period). *)
let ordinal_bound ~offs ~period ~phase ~max_slots =
  let occ = Array.length offs in
  let stop = phase + (max_slots mod period) in
  let inwin =
    if stop <= period then first_from offs stop - first_from offs phase
    else occ - first_from offs phase + first_from offs (stop - period)
  in
  (occ * (max_slots / period)) + inwin

(* Analytic fold for memoryless loss (None / Bernoulli), exact to double
   precision. Residue r of the block cycle is visited at relative
   ordinals r+1, r+1+cap, ...; with iid loss p per observed occurrence,
   "residue r collected within the first J ordinals" has probability
   1 - p^v_r(J) (v_r = visits so far), independent across residues
   because the ordinal sets are disjoint. A(J) = P(at least [needed]
   residues collected) is then a Poisson-binomial tail, computed by a
   small DP; the completion-ordinal law is m(J) = A(J) - A(J-1).

   A(J) depends on (cap, needed, p) alone: a class's offsets and phase
   only map ordinals to slots, and its window only says where the law is
   cut. So one law serves every class sharing those three. It is built
   until 1 - A < 1e-15 or up to [jmax], the longest cut among them, and
   each class reads its own prefix: the same DP on the same visit counts,
   so the same floats the class would compute alone. [a.(j)] is A(j)
   ([a.(0) = 0]); [ords] lists, ascending, the ordinals of positive
   mass. *)
type law = { a : float array; ords : int array }

let build_law ~cap ~needed ~p ~jmax =
  let pow_p v = if v = 0 then 1.0 else p ** float_of_int v in
  (* P(>= needed residues collected) given per-residue visit counts. *)
  let tail_prob v =
    let dp = Array.make needed 0.0 in
    dp.(0) <- 1.0;
    for r = 0 to cap - 1 do
      let c = 1.0 -. pow_p v.(r) in
      if c > 0.0 then
        for k = needed - 1 downto 0 do
          let flow = dp.(k) *. c in
          dp.(k) <- dp.(k) -. flow;
          if k + 1 < needed then dp.(k + 1) <- dp.(k + 1) +. flow
        done
    done;
    1.0 -. Array.fold_left ( +. ) 0.0 dp
  in
  let visits = Array.make cap 0 in
  let a = ref [ 0.0 ] and ords = ref [] in
  let j = ref 0 in
  let converged = ref false in
  while (not !converged) && !j < jmax do
    incr j;
    let r = (!j - 1) mod cap in
    visits.(r) <- visits.(r) + 1;
    let x = tail_prob visits in
    if x -. List.hd !a > 0.0 then ords := !j :: !ords;
    a := x :: !a;
    if 1.0 -. x < 1e-15 then converged := true
  done;
  { a = Array.of_list (List.rev !a); ords = Array.of_list (List.rev !ords) }

(* One class over its law cut at [jmax]. Buckets run from the largest
   completion ordinal down to the smallest, then the expiry tail. The
   integer weight is apportioned over them by largest remainder (floors,
   then one more client each for the largest fractions, ties to the
   lower bucket index), and expected losses follow from Wald's identity:
   E[losses] = p * E[ordinals observed]. Rows ascend in elapsed, then
   the expired row; the class's losses ride on the first. *)
let analytic_rows { a; ords } ~offs ~period ~phase ~jmax ~p ~file ~deadline
    ~weight =
  let last = min jmax (Array.length a - 1) in
  let nc = first_from ords (last + 1) in
  let nb = nc + 1 in
  let ordinal b = if b < nc then ords.(nc - 1 - b) else jmax in
  let alloc = Array.make nb 0 and frac = Array.make nb 0.0 in
  let given = ref 0 in
  for b = 0 to nb - 1 do
    let m =
      if b < nc then a.(ordinal b) -. a.(ordinal b - 1)
      else Float.max 0.0 (1.0 -. a.(last))
    in
    let q = m *. float_of_int weight in
    let fl = int_of_float (floor q) in
    alloc.(b) <- fl;
    given := !given + fl;
    frac.(b) <- q -. float_of_int fl
  done;
  let remaining = weight - !given in
  (* The [remaining] largest fractions take one more client each, ties
     to the lower bucket. *)
  let order = Array.init nb Fun.id in
  Array.stable_sort
    (fun b c ->
      let by_frac = Float.compare frac.(c) frac.(b) in
      if by_frac <> 0 then by_frac else Int.compare b c)
    order;
  for k = 0 to min remaining nb - 1 do
    alloc.(order.(k)) <- alloc.(order.(k)) + 1
  done;
  (* Wald's sum in bucket order; [first] is the earliest row's bucket. *)
  let ordinals = ref 0.0 and first = ref nc in
  for b = 0 to nb - 1 do
    if alloc.(b) > 0 then begin
      ordinals := !ordinals +. float_of_int (alloc.(b) * ordinal b);
      if b < nc then first := b
    end
  done;
  let losses = int_of_float (Float.round (p *. !ordinals)) in
  let occ = Array.length offs and i0 = first_from offs phase in
  let row b elapsed =
    { Retire.file; deadline; elapsed; weight = alloc.(b);
      losses = (if b = !first then losses else 0) }
  in
  let rows = ref (if alloc.(nc) > 0 then [ row nc None ] else []) in
  for b = 0 to nc - 1 do
    if alloc.(b) > 0 then begin
      let idx = i0 + ordinal b - 1 in
      let d = offs.(idx mod occ) + (period * (idx / occ)) - phase in
      rows := row b (Some (d + 1)) :: !rows
    end
  done;
  !rows

let sampled_class ~model ~seed ~key ~weight ~program ~max_slots =
  let tag = class_tag ~seed key in
  let elapsed_counts = Hashtbl.create 32 in
  let expired = ref 0 and losses = ref 0 and swept = ref 0 in
  for i = 0 to weight - 1 do
    let f = fault_of_model model ~seed:(Intmath.mix64 (tag + i)) in
    Fault.reset_to f key.phase;
    let elapsed, l, d =
      sweep ~needed:key.needed ~max_slots
        [| lane program ~file:key.file ~issued:key.phase f |]
    in
    (match elapsed with
    | Some e ->
        Hashtbl.replace elapsed_counts e
          (1 + Option.value ~default:0 (Hashtbl.find_opt elapsed_counts e))
    | None -> incr expired);
    losses := !losses + l;
    swept := !swept + d
  done;
  let rows =
    rows_of_hist ~file:key.file ~deadline:key.deadline elapsed_counts
      ~expired:!expired ~losses:!losses
  in
  (rows, !swept)

let population_rows ?pool ?max_slots ?(sampled = false) ~program ~model ~seed
    ~rest classes =
  let who = "Cohort.run_population" in
  let max_slots = window ~who ?max_slots program in
  let period = Program.period program in
  let classes = canonicalize ~who classes in
  Array.iter
    (fun c ->
      if c.key.phase < 0 || c.key.phase >= period then
        invalid_arg (who ^ ": phase out of [0, period)");
      check_request ~who program ~file:c.key.file ~needed:c.key.needed)
    classes;
  let analytic =
    (not sampled) && (match model with No_loss | Bernoulli _ -> true | Burst _ -> false)
  in
  let p = loss_rate_of_model model in
  let nclasses = Array.length classes in
  let rows = Array.make nclasses [] in
  let obs = Obs.Control.enabled () in
  if analytic then begin
    (* Each class's cut, and one law per (capacity, needed), built here,
       before the fan-out, as far as the longest cut among its classes
       needs. *)
    let law_key c = (Program.capacity program c.key.file, c.key.needed) in
    let cut =
      Array.map
        (fun c ->
          ordinal_bound ~offs:(Program.offsets program c.key.file) ~period
            ~phase:c.key.phase ~max_slots)
        classes
    in
    let reach = Hashtbl.create 16 in
    Array.iteri
      (fun ci c ->
        let k = law_key c in
        Hashtbl.replace reach k
          (max cut.(ci) (Option.value ~default:0 (Hashtbl.find_opt reach k))))
      classes;
    let laws = Hashtbl.create (Hashtbl.length reach) in
    Hashtbl.iter
      (fun ((cap, needed) as k) jmax ->
        Hashtbl.add laws k (build_law ~cap ~needed ~p ~jmax))
      reach;
    if obs then Obs.Registry.add obs_laws (Hashtbl.length laws);
    for_classes ?pool ~n:nclasses (fun ci ->
        let c = classes.(ci) in
        rows.(ci) <-
          analytic_rows
            (Hashtbl.find laws (law_key c))
            ~offs:(Program.offsets program c.key.file)
            ~period ~phase:c.key.phase ~jmax:cut.(ci) ~p ~file:c.key.file
            ~deadline:c.key.deadline ~weight:c.weight;
        if obs then Obs.Registry.incr obs_analytic)
  end
  else
    for_classes ?pool ~n:nclasses (fun ci ->
        let c = classes.(ci) in
        let r, swept =
          sampled_class ~model ~seed ~key:c.key ~weight:c.weight ~program
            ~max_slots
        in
        rows.(ci) <- r;
        if obs then Obs.Registry.add obs_swept swept);
  if obs then begin
    Obs.Registry.add obs_classes nclasses;
    Obs.Registry.add obs_members
      (Array.fold_left (fun acc c -> acc + c.weight) 0 classes)
  end;
  let acc = ref rest in
  for ci = nclasses - 1 downto 0 do
    acc := rows.(ci) @ !acc
  done;
  !acc

let retire rows = Retire.retire ~sinks rows

let run_population ?sampled ~program ~model ~seed classes =
  retire (population_rows ?sampled ~program ~model ~seed ~rest:[] classes)
