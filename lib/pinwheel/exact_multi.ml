type result = Feasible of Schedule.t | Infeasible | Too_large

(* State: per task, the occupancy bitmask of the last (b - 1) slots,
   packed into one int. Scheduling choice c appends one bit per task; a
   transition is valid iff every task's just-completed window (the new
   bit plus its b - 1 history bits) holds at least a occurrences.
   Schedulability = the valid-transition graph has a cycle (loop it for a
   cyclic schedule); liveness is computed over ALL states, not just the
   ones reachable from some start, because any live state lies on or
   reaches a cycle. *)

let popcount =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  fun m -> go m 0

(* The largest [Π 2^(b_i - 1)] the search attempts. *)
let max_states = 1_000_000

let decide sys =
  (match Task.check_system sys with
  | Error e -> invalid_arg ("Exact_multi.decide: " ^ e)
  | Ok () -> ());
  if sys = [] then invalid_arg "Exact_multi.decide: empty system";
  let tasks = Array.of_list sys in
  let n = Array.length tasks in
  let widths = Array.map (fun t -> t.Task.b - 1) tasks in
  let offsets = Array.make n 0 in
  let total_bits = ref 0 in
  Array.iteri
    (fun i w ->
      offsets.(i) <- !total_bits;
      total_bits := !total_bits + w)
    widths;
  if !total_bits >= 60 || 1 lsl !total_bits > max_states then Too_large
  else begin
    let total = 1 lsl !total_bits in
    let mask i = (1 lsl widths.(i)) - 1 in
    let history s i = (s lsr offsets.(i)) land mask i in
    (* successor s c = Some next, where c in [0, n] (n = idle). *)
    let successor s c =
      let rec build i next =
        if i >= n then Some next
        else
          let bit = if i = c then 1 else 0 in
          let h = history s i in
          if popcount h + bit < tasks.(i).Task.a then None
          else
            let h' = ((h lsl 1) lor bit) land mask i in
            build (i + 1) (next lor (h' lsl offsets.(i)))
      in
      build 0 0
    in
    let live = Bytes.make total '\001' in
    let changed = ref true in
    while !changed do
      changed := false;
      for s = 0 to total - 1 do
        if Bytes.get live s = '\001' then begin
          let has_live = ref false in
          for c = 0 to n do
            if not !has_live then
              match successor s c with
              | Some next when Bytes.get live next = '\001' -> has_live := true
              | Some _ | None -> ()
          done;
          if not !has_live then begin
            Bytes.set live s '\000';
            changed := true
          end
        end
      done
    done;
    (* Any live state reaches a cycle of live states. *)
    let start = ref (-1) in
    (try
       for s = 0 to total - 1 do
         if Bytes.get live s = '\001' then begin
           start := s;
           raise Exit
         end
       done
     with Exit -> ());
    if !start < 0 then Infeasible
    else begin
      let visited_at = Hashtbl.create 256 in
      let choices = ref [] in
      let rec walk s step =
        match Hashtbl.find_opt visited_at s with
        | Some first ->
            let all = Array.of_list (List.rev !choices) in
            Array.sub all first (step - first)
        | None ->
            Hashtbl.add visited_at s step;
            (* Prefer serving the task whose window is closest to failing. *)
            let best = ref None in
            for c = n downto 0 do
              match successor s c with
              | Some next when Bytes.get live next = '\001' ->
                  let urgency =
                    if c = n then max_int
                    else tasks.(c).Task.b - popcount (history s c)
                  in
                  (match !best with
                  | Some (_, _, u) when u <= urgency -> ()
                  | _ -> best := Some (c, next, urgency))
              | Some _ | None -> ()
            done;
            let c, next, _ =
              match !best with Some x -> x | None -> assert false
            in
            let slot = if c = n then Schedule.idle else tasks.(c).Task.id in
            choices := slot :: !choices;
            walk next (step + 1)
      in
      let slots = walk !start 0 in
      let sched = Schedule.make slots in
      assert (Verify.satisfies sched sys);
      Feasible sched
    end
  end
