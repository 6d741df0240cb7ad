(* The two exhaustive deciders the library shipped before its bounded
   search, kept as oracles for it. [Unit] fixpoints the whole slack-vector
   space of a unit system (the product of its windows); [Multi] fixpoints
   every occupancy history of a multi-unit system (2^Σ(b-1) states). Both
   refuse instances past their caps before searching. *)

module Task = Pindisk_pinwheel.Task
module Schedule = Pindisk_pinwheel.Schedule
module Verify = Pindisk_pinwheel.Verify

type result = Feasible of Schedule.t | Infeasible | Too_large

module Unit = struct
  let decide ?(max_states = 2_000_000) sys =
    (match Task.check_system sys with
    | Error e -> invalid_arg ("Exact_oracle.Unit.decide: " ^ e)
    | Ok () -> ());
    if sys = [] then invalid_arg "Exact_oracle.Unit.decide: empty system";
    if not (Task.is_unit_system sys) then
      invalid_arg "Exact_oracle.Unit.decide: only single-unit systems (a = 1) are supported";
    let tasks = Array.of_list sys in
    let n = Array.length tasks in
    let b = Array.map (fun t -> t.Task.b) tasks in
    (* Mixed-radix weights; bail out early if the product overflows the cap. *)
    let weights = Array.make (n + 1) 1 in
    let too_large = ref false in
    for i = 0 to n - 1 do
      if not !too_large then begin
        if weights.(i) > max_states / b.(i) then too_large := true
        else weights.(i + 1) <- weights.(i) * b.(i)
      end
    done;
    if !too_large then Too_large
    else begin
      let total = weights.(n) in
      let decode s d =
        let s = ref s in
        for i = 0 to n - 1 do
          d.(i) <- !s mod b.(i);
          s := !s / b.(i)
        done
      in
      let initial =
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc := !acc + ((b.(i) - 1) * weights.(i))
        done;
        !acc
      in
      (* [successors s k] calls [k choice next] for each valid transition;
         choice = n means idle. *)
      let d = Array.make n 0 in
      let successors s k =
        decode s d;
        let zeros = ref 0 and zero_at = ref (-1) in
        for i = 0 to n - 1 do
          if d.(i) = 0 then begin
            incr zeros;
            zero_at := i
          end
        done;
        if !zeros > 1 then () (* dead: two tasks due in the same slot *)
        else begin
          (* The all-decrement base value, pretending every d_i drops by 1. *)
          let dec = ref s in
          for i = 0 to n - 1 do
            dec := !dec - weights.(i)
          done;
          if !zeros = 1 then begin
            let j = !zero_at in
            k j (!dec + ((b.(j) - d.(j)) * weights.(j)))
          end
          else begin
            for j = 0 to n - 1 do
              k j (!dec + ((b.(j) - d.(j)) * weights.(j)))
            done;
            k n !dec
          end
        end
      in
      (* BFS for the reachable set. *)
      let reachable = Bytes.make total '\000' in
      let stack = ref [ initial ] in
      Bytes.set reachable initial '\001';
      let count_reachable = ref 1 in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | s :: rest ->
            stack := rest;
            successors s (fun _choice next ->
                if Bytes.get reachable next = '\000' then begin
                  Bytes.set reachable next '\001';
                  incr count_reachable;
                  stack := next :: !stack
                end)
      done;
      (* Greatest fixpoint: repeatedly kill reachable states with no live
         successor. *)
      let live = Bytes.copy reachable in
      let changed = ref true in
      while !changed do
        changed := false;
        for s = 0 to total - 1 do
          if Bytes.get live s = '\001' then begin
            let has_live = ref false in
            successors s (fun _choice next ->
                if Bytes.get live next = '\001' then has_live := true);
            if not !has_live then begin
              Bytes.set live s '\000';
              changed := true
            end
          end
        done
      done;
      if Bytes.get live initial = '\000' then Infeasible
      else begin
        (* Extract a cycle: walk from the initial state, preferring to serve
           the most urgent task (an EDF-flavoured tie-break), until a state
           repeats; the slots between the two visits form the schedule. *)
        let visited_at = Hashtbl.create 1024 in
        let choices = ref [] in
        let rec walk s step =
          match Hashtbl.find_opt visited_at s with
          | Some first ->
              let all = Array.of_list (List.rev !choices) in
              Array.sub all first (step - first)
          | None ->
              Hashtbl.add visited_at s step;
              let best = ref None in
              successors s (fun choice next ->
                  if Bytes.get live next = '\001' then begin
                    let urgency =
                      if choice = n then max_int
                      else begin
                        decode s d;
                        d.(choice)
                      end
                    in
                    match !best with
                    | Some (_, _, u) when u <= urgency -> ()
                    | _ -> best := Some (choice, next, urgency)
                  end);
              let choice, next, _ =
                match !best with
                | Some x -> x
                | None -> assert false (* s is live, so a live successor exists *)
              in
              let slot = if choice = n then Schedule.idle else tasks.(choice).Task.id in
              choices := slot :: !choices;
              walk next (step + 1)
        in
        let slots = walk initial 0 in
        let sched = Schedule.make slots in
        assert (Verify.satisfies sched sys);
        Feasible sched
      end
    end
end

module Multi = struct
  let popcount =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    fun m -> go m 0

  (* The largest [Π 2^(b_i - 1)] the search attempts. *)
  let max_states = 1_000_000

  let decide sys =
    (match Task.check_system sys with
    | Error e -> invalid_arg ("Exact_oracle.Multi.decide: " ^ e)
    | Ok () -> ());
    if sys = [] then invalid_arg "Exact_oracle.Multi.decide: empty system";
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
end
