type result = Feasible of Schedule.t | Infeasible | Too_large

(* A state holds, per task (i, a, b), the deadlines of its next [a]
   required occurrences, ascending and relative to the current slot: the
   last [a] occurrences plus [b], the initial state counting [a] virtual
   occurrences in slot -1. Serving a task drops its first deadline and
   appends [b - 1]; every other deadline drops by one. Tasks with equal
   (a, b) sit next to each other, their deadline tuples ascending, so a
   state is canonical up to relabelling interchangeable tasks. *)

let default_states = 100_000

let decide ?(max_states = default_states) sys =
  (match Task.check_system sys with
  | Error e -> invalid_arg ("Exact.decide: " ^ e)
  | Ok () -> ());
  if sys = [] then invalid_arg "Exact.decide: empty system";
  let by_class (s : Task.t) (t : Task.t) = compare (s.a, s.b) (t.a, t.b) in
  let tasks = Array.of_list (List.stable_sort by_class sys) in
  let n = Array.length tasks in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun i (t : Task.t) -> off.(i + 1) <- off.(i) + t.a) tasks;
  let e = off.(n) in
  (* A state of e > 32 deadlines costs e/32 times the memory and work of
     one of 32, and counts as e/32 states. *)
  let max_states = if e <= 32 then max_states else max_states / e * 32 in
  let paired = Array.init n (fun p -> p + 1 < n && by_class tasks.(p) tasks.(p + 1) = 0) in
  (* Lexicographic order of the tuples of the neighbours p and p + 1. *)
  let cmp d p =
    let o = off.(p) and a = tasks.(p).a and k = ref 0 in
    while !k < a - 1 && d.(o + !k) = d.(o + a + !k) do
      incr k
    done;
    compare d.(o + !k) d.(o + a + !k)
  in
  let swap a i j =
    let v = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- v
  in
  (* [step d p d' perm] writes into [d'] the state after serving position
     [p] ([n] idles) and keeps it canonical, permuting [perm] alike. *)
  let step d p d' perm =
    for j = 0 to e - 1 do
      d'.(j) <- d.(j) - 1
    done;
    if p < n then begin
      let o = off.(p) and a = tasks.(p).a in
      Array.blit d' (o + 1) d' o (a - 1);
      d'.(o + a - 1) <- tasks.(p).b - 1;
      let p = ref p in
      while paired.(!p) && cmp d' !p > 0 do
        for k = off.(!p) to off.(!p) + a - 1 do
          swap d' k (k + a)
        done;
        swap perm !p (!p + 1);
        incr p
      done
    end
  in
  (* One occurrence per slot: the k-th earliest deadline (from 0) must not
     fall before slot k. Slot u is tight when the deadlines up to u fill
     slots 0..u. [tight d] tells whether [d] keeps the rule, and sets [lo]
     and [hi] to its first and last tight slot (max_int and -1 when none).
     From there, serving a task whose first deadline is x keeps the rule
     exactly when no slot in [0, x) or at or past its window is tight, and
     idling when none is. *)
  let count = Array.make e 0 and lo = ref 0 and hi = ref 0 in
  let tight d =
    Array.iter (fun v -> if v < e then count.(v) <- count.(v) + 1) d;
    lo := max_int;
    hi := -1;
    let acc = ref 0 and ok = ref true in
    for u = 0 to e - 1 do
      acc := !acc + count.(u);
      count.(u) <- 0;
      if !acc > u + 1 then ok := false
      else if !acc = u + 1 then begin
        lo := min !lo u;
        hi := u
      end
    done;
    !ok
  in
  (* The choices from [d] in order: tasks by first deadline, one per run
     of equal tuples, then idle ([max_int]). A task's code is its first
     deadline times [n] plus its position. [next d tried] is the choice
     after [tried], or -1. *)
  let next d tried =
    let best = ref max_int in
    for p = 0 to n - 1 do
      let c = (d.(off.(p)) * n) + p in
      if c > tried && c < !best && not (p > 0 && paired.(p - 1) && cmp d (p - 1) = 0)
      then best := c
    done;
    if !best < max_int then !best else if tried < max_int then max_int else -1
  in
  let position c = if c = max_int then n else c mod n in
  (* The states explored, numbered in order: state i's deadlines fill
     [arena] from byte [8 * i * e], 8 bytes each (bytes, so the collector
     does not scan them); [depth.(i)] is its depth on the path, or -1 once
     exhausted. [index] is an open-addressing hash table of state numbers,
     -1 where empty. *)
  let arena = ref Bytes.empty and depth = ref [||] in
  let index = ref (Array.make 64 (-1)) and states = ref 0 in
  let get i j = Int64.to_int (Bytes.get_int64_le !arena (8 * ((i * e) + j))) in
  let load i d =
    for j = 0 to e - 1 do
      d.(j) <- get i j
    done
  in
  (* The slot of [index] that holds [d], or the empty one it would take. *)
  let slot d =
    let mask = Array.length !index - 1 and h = ref 0 in
    for j = 0 to e - 1 do
      h := (31 * !h) + d.(j)
    done;
    let k = ref (Hashtbl.hash !h land mask) and found = ref false in
    while not !found do
      let i = !index.(!k) and j = ref 0 in
      while i >= 0 && !j < e && get i !j = d.(!j) do
        incr j
      done;
      if i < 0 || !j = e then found := true else k := (!k + 1) land mask
    done;
    !k
  in
  let add d k dep =
    let i = !states in
    if i = Array.length !depth then begin
      arena := Bytes.extend !arena 0 (8 * max 64 i * e);
      depth := Array.append !depth (Array.make (max 64 i) 0)
    end;
    Array.iteri (fun j v -> Bytes.set_int64_le !arena (8 * ((i * e) + j)) (Int64.of_int v)) d;
    !depth.(i) <- dep;
    !index.(k) <- i;
    incr states;
    if 2 * !states > Array.length !index then begin
      index := Array.make (2 * Array.length !index) (-1);
      let d = Array.make e 0 in
      for s = 0 to i do
        load s d;
        !index.(slot d) <- s
      done
    end
  in
  (* The schedule of the cycle of choices from state [s] back to it. Any
     labelling of a reachable state is reachable, so the positions start
     as the tasks' own; the cycle repeats until they come back. *)
  let unroll cycle s =
    let d = Array.make e 0 and d' = Array.make e 0 and perm = Array.init n Fun.id in
    load s d;
    let play slots p =
      let slot = if p = n then Schedule.idle else tasks.(perm.(p)).id in
      step d p d' perm;
      Array.blit d' 0 d 0 e;
      slot :: slots
    in
    let rec rounds slots =
      let slots = List.fold_left play slots cycle in
      if perm = Array.init n Fun.id then slots else rounds slots
    in
    Schedule.make (Array.of_list (List.rev (rounds [])))
  in
  let cur = Array.make e 0 and child = Array.make e 0 in
  Array.iteri (fun p (t : Task.t) -> Array.fill cur off.(p) t.a (t.b - 1)) tasks;
  let scratch = Array.make n 0 in
  (* Depth first from state [s], held in [cur], after its choice [c];
     [path] holds the states back from it, each with the choice taken. *)
  let rec search s path c =
    let c = next cur c in
    let p = position c in
    (* Choices come by first deadline: past [lo], all are dead. *)
    if c < 0 || if p = n then !hi >= 0 else cur.(off.(p)) > !lo then begin
      !depth.(s) <- -1;
      match path with
      | [] -> Infeasible
      | (s, c) :: path ->
          load s cur;
          ignore (tight cur);
          search s path c
    end
    else if p < n && !hi >= tasks.(p).b then search s path c
    else begin
      step cur p child scratch;
      let k = slot child in
      let i = !index.(k) in
      if i >= 0 && !depth.(i) < 0 then search s path c
      else if i >= 0 then begin
        let cycle = List.filter (fun (s, _) -> !depth.(s) >= !depth.(i)) ((s, c) :: path) in
        let sched = unroll (List.rev_map (fun (_, c) -> position c) cycle) i in
        assert (Verify.satisfies sched sys);
        Feasible sched
      end
      else if !states >= max_states then Too_large
      else begin
        add child k (!depth.(s) + 1);
        Array.blit child 0 cur 0 e;
        ignore (tight cur);
        search (!states - 1) ((s, c) :: path) (-1)
      end
    end
  in
  if not (tight cur) then Infeasible
  else begin
    add cur (slot cur) 0;
    search 0 [] (-1)
  end
