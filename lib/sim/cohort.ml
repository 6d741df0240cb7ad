module Plan = Pindisk_pinwheel.Plan
module Schedule = Pindisk_pinwheel.Schedule
module Intmath = Pindisk_util.Intmath
module Pool = Pindisk_util.Pool
module Obs = Pindisk_obs

let sinks = Retire.sinks ~prefix:"cohort"
let obs_classes = Obs.Registry.counter "cohort.classes"
let obs_members = Obs.Registry.counter "cohort.members"
let obs_swept = Obs.Registry.counter "cohort.swept"
let obs_analytic = Obs.Registry.counter "cohort.analytic"

type key = { file : int; phase : int; needed : int; deadline : int }
type cls = { key : key; weight : int }

(* One period of warm-up dispatch, done once per plan: the sorted slot
   offsets each file occupies within a period. Their lengths are the
   per-file occurrence counts (validation and the data cycle); the
   offsets themselves are each class's occurrence pattern. O(period·log
   n) time, O(period) memory, no slot array. The plan is kept so a prep
   handed back to [run] can be checked against the plan it came from. *)
type prep = {
  plan : Plan.t;
  period : int;
  offsets : (int, int array) Hashtbl.t;
}

let prepare plan =
  let d = Plan.create plan in
  let period = Plan.period plan in
  let rev_offsets = Hashtbl.create 64 in
  for s = 0 to period - 1 do
    let f = Plan.next d in
    if f <> Schedule.idle then
      Hashtbl.replace rev_offsets f
        (s :: Option.value ~default:[] (Hashtbl.find_opt rev_offsets f))
  done;
  let offsets = Hashtbl.create 64 in
  Hashtbl.iter
    (fun f rev -> Hashtbl.replace offsets f (Array.of_list (List.rev rev)))
    rev_offsets;
  { plan; period; offsets }

(* Slots after which the (occurrence count mod capacity) phase of every
   file realigns with slot 0 — the block-cycling period of the whole
   broadcast; [100 ·] it is the default retrieval window. *)
let data_cycle prep ~capacity =
  Hashtbl.fold
    (fun f offs acc ->
      let n = capacity f in
      Intmath.lcm acc (n / Intmath.gcd n (Array.length offs)))
    prep.offsets 1
  * prep.period

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
  |> List.sort (fun a b -> compare a.key b.key)

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

let capacity_fn ~who capacities =
  let caps = Hashtbl.create 16 in
  List.iter
    (fun (f, n) ->
      if n < 1 then invalid_arg (who ^ ": capacity must be >= 1");
      Hashtbl.replace caps f n)
    capacities;
  fun f ->
    match Hashtbl.find_opt caps f with
    | Some n -> n
    | None -> invalid_arg (who ^ ": file not in plan capacities")

(* Shared front matter of both entry points: the capacity lookup, the
   warm-up (a caller's prep must come from this very plan — one from a
   different plan of the same period would silently misattribute slots)
   and the default retrieval window. *)
let setup ~who ?prep ?max_slots ~plan capacities =
  let capacity = capacity_fn ~who capacities in
  let prep =
    match prep with
    | Some p ->
        if not (p.plan == plan || p.plan = plan) then
          invalid_arg (who ^ ": prep was built from a different plan");
        p
    | None -> prepare plan
  in
  let max_slots =
    match max_slots with
    | Some m -> m
    | None -> 100 * data_cycle prep ~capacity
  in
  (capacity, prep, max_slots)

let check_request ~who ~capacity prep ~file ~needed =
  if needed < 1 then invalid_arg (who ^ ": needed must be >= 1");
  if needed > capacity file then
    invalid_arg (who ^ ": needed exceeds the file's capacity");
  if not (Hashtbl.mem prep.offsets file) then
    invalid_arg (who ^ ": file never broadcast")

let slot_offsets prep file =
  Option.value ~default:[||] (Hashtbl.find_opt prep.offsets file)

(* mask.(o) = the plan broadcasts the file at slot offset o. *)
let mask_of prep file =
  let mask = Array.make prep.period false in
  Array.iter (fun o -> mask.(o) <- true) (slot_offsets prep file);
  mask

let masks_of prep files =
  let masks = Hashtbl.create 16 in
  Array.iter
    (fun f ->
      if not (Hashtbl.mem masks f) then Hashtbl.add masks f (mask_of prep f))
    files;
  masks

(* One member's retrieval, mirroring [Client.retrieve]'s walk: the fault
   process (already reset to the issue slot) advances once per slot;
   own-file occurrences are lost or collected; collection tracks
   distinct residues of the relative occurrence ordinal mod capacity —
   a constant shift of the global block index, so the distinct count
   (and hence completion slot and losses) matches the per-client walk
   exactly. Returns (elapsed, losses, slots swept). *)
let sweep_member ~mask ~period ~phase ~cap ~needed ~max_slots fault =
  let seen = Array.make cap false in
  let distinct = ref 0 and losses = ref 0 in
  let j = ref 0 and o = ref phase in
  let elapsed = ref None in
  let d = ref 0 in
  while !elapsed = None && !d < max_slots do
    let lost = Fault.advance fault in
    if mask.(!o) then begin
      (if lost then incr losses
       else begin
         let r = !j mod cap in
         if not seen.(r) then begin
           seen.(r) <- true;
           incr distinct;
           if !distinct >= needed then elapsed := Some (!d + 1)
         end
       end);
      incr j
    end;
    o := (if !o + 1 = period then 0 else !o + 1);
    incr d
  done;
  (!elapsed, !losses, !d)

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

let run ?pool ?prep ?max_slots ~plan ~capacities ~fault ~seed trace =
  let who = "Cohort.run" in
  let capacity, prep, max_slots = setup ~who ?prep ?max_slots ~plan capacities in
  let period = prep.period in
  List.iter
    (fun (r : Workload.request) ->
      if r.Workload.issued < 0 then invalid_arg (who ^ ": negative start");
      check_request ~who ~capacity prep ~file:r.Workload.file
        ~needed:r.Workload.needed)
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
    |> List.sort compare
    |> Array.of_list
  in
  let masks = masks_of prep (Array.map (fun (key, _) -> key.file) classes) in
  let outcomes = Array.make n (None, 0) in
  let obs = Obs.Control.enabled () in
  for_classes ?pool ~n:(Array.length classes) (fun ci ->
      let key, members = classes.(ci) in
      let mask = Hashtbl.find masks key.file in
      let cap = capacity key.file in
      let swept = ref 0 in
      List.iter
        (fun k ->
          let f = fault ~seed:(Intmath.mix64 (seed + k)) in
          Fault.reset_to f reqs.(k).Workload.issued;
          let elapsed, losses, d =
            sweep_member ~mask ~period ~phase:key.phase ~cap
              ~needed:key.needed ~max_slots f
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
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if c.weight < 0 then invalid_arg (who ^ ": negative class weight");
      if c.weight > 0 then
        Hashtbl.replace tbl c.key
          (c.weight + Option.value ~default:0 (Hashtbl.find_opt tbl c.key)))
    classes;
  Hashtbl.fold (fun key weight acc -> { key; weight } :: acc) tbl []
  |> List.sort (fun a b -> compare a.key b.key)
  |> Array.of_list

(* Analytic fold for memoryless loss (None / Bernoulli), exact to double
   precision. Residue r of the block cycle is visited at relative
   ordinals r+1, r+1+cap, ...; with iid loss p per observed occurrence,
   "residue r collected within the first J ordinals" has probability
   1 - p^v_r(J) (v_r = visits so far), independent across residues
   because the ordinal sets are disjoint. A(J) = P(at least [needed]
   residues collected) is then a Poisson-binomial tail, computed by a
   small DP; the completion-ordinal law is m(J) = A(J) - A(J-1). The
   class's integer weight is apportioned over {m(J)} + the expiry tail
   by largest remainder, and expected losses follow from Wald's
   identity: E[losses] = p * E[ordinals observed]. *)
let analytic_class ~offs ~period ~phase ~cap ~needed ~deadline ~max_slots ~p
    ~weight ~file =
  let occ = Array.length offs in
  let i0 = ref 0 in
  while !i0 < occ && offs.(!i0) < phase do
    incr i0
  done;
  let i0 = !i0 in
  let d_of_ordinal j =
    let idx = i0 + j - 1 in
    offs.(idx mod occ) + (period * (idx / occ)) - phase
  in
  let jmax =
    let full = max_slots / period and rem = max_slots mod period in
    let inwin =
      Array.fold_left
        (fun acc o ->
          if (o - phase + period) mod period < rem then acc + 1 else acc)
        0 offs
    in
    (occ * full) + inwin
  in
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
  let masses = ref [] (* (ordinal, mass), reverse order *) in
  let prev_a = ref 0.0 in
  let j = ref 0 in
  let converged = ref false in
  while (not !converged) && !j < jmax do
    incr j;
    let r = (!j - 1) mod cap in
    visits.(r) <- visits.(r) + 1;
    let a = tail_prob visits in
    let m = a -. !prev_a in
    if m > 0.0 then masses := (!j, m) :: !masses;
    prev_a := a;
    if 1.0 -. a < 1e-15 then converged := true
  done;
  let tail = Float.max 0.0 (1.0 -. !prev_a) in
  (* Largest-remainder apportionment of the integer weight over the
     completion masses plus the expiry tail. *)
  let buckets =
    Array.of_list (List.rev ((None, tail) :: List.rev_map (fun (j, m) -> (Some j, m)) !masses))
  in
  let nb = Array.length buckets in
  let alloc = Array.make nb 0 in
  let fracs = Array.make nb (0.0, 0) in
  let given = ref 0 in
  Array.iteri
    (fun i (_, m) ->
      let q = m *. float_of_int weight in
      let fl = int_of_float (floor q) in
      alloc.(i) <- fl;
      given := !given + fl;
      fracs.(i) <- (q -. float_of_int fl, i))
    buckets;
  let order = Array.copy fracs in
  Array.sort
    (fun (fa, ia) (fb, ib) ->
      if fa <> fb then compare fb fa else compare ia ib)
    order;
  let remaining = ref (weight - !given) in
  Array.iter
    (fun (_, i) ->
      if !remaining > 0 then begin
        alloc.(i) <- alloc.(i) + 1;
        decr remaining
      end)
    order;
  (* Rows + Wald losses. *)
  let elapsed_counts = Hashtbl.create 32 in
  let expired = ref 0 in
  let ordinals = ref 0.0 in
  Array.iteri
    (fun i (bucket, _) ->
      if alloc.(i) > 0 then
        match bucket with
        | Some jo ->
            Hashtbl.replace elapsed_counts (d_of_ordinal jo + 1) alloc.(i);
            ordinals := !ordinals +. float_of_int (alloc.(i) * jo)
        | None ->
            expired := !expired + alloc.(i);
            ordinals := !ordinals +. float_of_int (alloc.(i) * jmax))
    buckets;
  let losses = int_of_float (Float.round (p *. !ordinals)) in
  rows_of_hist ~file ~deadline elapsed_counts ~expired:!expired ~losses

let sampled_class ~model ~seed ~key ~weight ~mask ~period ~cap ~max_slots =
  let tag = class_tag ~seed key in
  let elapsed_counts = Hashtbl.create 32 in
  let expired = ref 0 and losses = ref 0 and swept = ref 0 in
  for i = 0 to weight - 1 do
    let f = fault_of_model model ~seed:(Intmath.mix64 (tag + i)) in
    Fault.reset_to f key.phase;
    let elapsed, l, d =
      sweep_member ~mask ~period ~phase:key.phase ~cap ~needed:key.needed
        ~max_slots f
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

let run_population ?pool ?prep ?max_slots ?(sampled = false) ~plan ~capacities
    ~model ~seed classes =
  let who = "Cohort.run_population" in
  let capacity, prep, max_slots = setup ~who ?prep ?max_slots ~plan capacities in
  let period = prep.period in
  let classes = canonicalize ~who classes in
  Array.iter
    (fun c ->
      if c.key.phase < 0 || c.key.phase >= period then
        invalid_arg (who ^ ": phase out of [0, period)");
      check_request ~who ~capacity prep ~file:c.key.file ~needed:c.key.needed)
    classes;
  let analytic =
    (not sampled) && (match model with No_loss | Bernoulli _ -> true | Burst _ -> false)
  in
  let p = loss_rate_of_model model in
  let masks = masks_of prep (Array.map (fun c -> c.key.file) classes) in
  let nclasses = Array.length classes in
  let rows = Array.make nclasses [] in
  let obs = Obs.Control.enabled () in
  for_classes ?pool ~n:nclasses (fun ci ->
      let c = classes.(ci) in
      let cap = capacity c.key.file in
      if analytic then begin
        rows.(ci) <-
          analytic_class
            ~offs:(slot_offsets prep c.key.file)
            ~period ~phase:c.key.phase ~cap ~needed:c.key.needed
            ~deadline:c.key.deadline ~max_slots ~p ~weight:c.weight
            ~file:c.key.file;
        if obs then Obs.Registry.incr obs_analytic
      end
      else begin
        let r, swept =
          sampled_class ~model ~seed ~key:c.key ~weight:c.weight
            ~mask:(Hashtbl.find masks c.key.file)
            ~period ~cap ~max_slots
        in
        rows.(ci) <- r;
        if obs then Obs.Registry.add obs_swept swept
      end);
  if obs then begin
    Obs.Registry.add obs_classes nclasses;
    Obs.Registry.add obs_members
      (Array.fold_left (fun acc c -> acc + c.weight) 0 classes)
  end;
  Retire.retire ~sinks (List.concat (Array.to_list rows))
