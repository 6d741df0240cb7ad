(** Dispatch plans: the closed form behind every constructive scheduler.

    All constructive schedulers in this library reduce to exact arithmetic:
    {!Harmonic} places each unit task on the slots [offset + i·period];
    {!Rotation}'s member [j] of a [k]-member column [c] under base [g]
    occupies exactly the slots [≡ c + g·j (mod g·k)]; {!Two_chain}
    interleaves two sub-schedules by the Beatty-style test
    [⌊(t+1)c/d⌋ > ⌊t·c/d⌋]. A plan captures that closed form instead of the
    materialized slot array. It is what {!Scheduler.plan} returns, the one
    product of every scheduler, and it serves three consumers:

    - {!iter_occurrences} lists one period's occurrences in closed form, in
      time proportional to their number — how plans are verified
      ({!Verify.satisfies_plan}) and how broadcast programs are indexed
      ([Pindisk.Program.of_plan]);
    - {!to_schedule} materializes one hyperperiod eagerly — the only way to
      get a slot array, for callers that print or project one;
    - {!create}/{!next} dispatch slots {e online} in O(log n) time and O(n)
      memory — no hyperperiod array is ever allocated.

    All three walk the identical arithmetic; the test suite re-checks the
    dispatcher against the materialized schedule with qcheck replay over
    two hyperperiods, and the closed-form verifier against a dispatcher
    walk. *)

type progression = { key : int; offset : int; period : int }
(** Task [key] occupies exactly the slots [offset + i·period], [i >= 0]. *)

type t
(** A dispatch plan: disjoint progressions, a Beatty merge of two
    sub-plans, or an explicit schedule (the escape hatch for the exact
    solver, whose output has no closed form). *)

val progressions : progression list -> t
(** Plan serving each progression exactly; period is the lcm of the
    progression periods ([1] when empty — the all-idle plan). The
    progressions must be pairwise disjoint; collisions are detected by
    {!to_schedule} and by plan verification, not here. Raises
    [Invalid_argument] unless [0 <= offset < period] and [key >= 0] for
    each; raises [Pindisk_util.Intmath.Overflow] if the lcm overflows. *)

val merge : c:int -> d:int -> t -> t -> t
(** [merge ~c ~d first second] dedicates to [first] the slots [t] with
    [⌊(t+1)c/d⌋ > ⌊t·c/d⌋] — [c] of every [d], evenly — and the rest to
    [second]; each sub-plan runs on its own virtual timeline. Period is
    [d · lcm] of the sub-periods. Raises [Invalid_argument] unless
    [1 <= c < d]; raises [Overflow] if the period overflows. *)

val explicit : Schedule.t -> t
(** Wrap a materialized schedule (period and memory equal the schedule's —
    only this constructor ties plan memory to the hyperperiod). *)

val period : t -> int
(** The plan's cyclic period (the hyperperiod it would materialize to). *)

val task_ids : t -> int list
(** Distinct keys served by the plan, ascending. *)

val iter_occurrences : t -> (int -> int -> unit) -> unit
(** [iter_occurrences plan f] calls [f key t] once for every slot [t] of
    one period ([0 <= t < period plan]) that the plan gives to task [key],
    in no particular order. Progressions give [offset + i·period]; a merge
    maps its sub-plans' occurrences through the index formulas of its
    dedication test (the τ-th hit is [⌈(τ+1)d/c⌉ − 1], the σ-th miss
    [⌊σd/(d−c)⌋]), repeating each sub-period as often as the merged
    period holds it; an explicit schedule is read slot by slot. Cost:
    O(occurrences) for progressions and merges, whatever the period. A
    slot that two progressions claim is listed twice. *)

val to_schedule : t -> Schedule.t
(** Materialize one period from {!iter_occurrences}. Raises
    [Invalid_argument] if two progressions collide (a malformed plan —
    never produced by the schedulers). *)

(** {1 Online dispatching} *)

type dispatcher
(** Mutable cursor over a plan's biinfinite slot sequence. For progression
    plans this is a binary min-heap over next-occurrence times: since valid
    plans are collision-free, at most one task is due per slot, so
    {!next} costs one peek plus at most one pop/push — O(log n) — and the
    dispatcher's memory is O(n), independent of the hyperperiod. *)

val create : t -> dispatcher
(** A dispatcher positioned at slot 0. *)

val next : dispatcher -> int
(** The task id (or {!Schedule.idle}) of the current slot; advances the
    cursor. Equals [Schedule.task_at (to_schedule plan) t] for the [t]-th
    call on a well-formed plan. *)

val slot : dispatcher -> int
(** Index of the slot {!next} would dispatch next (0-based). *)

val reset : dispatcher -> unit
(** Rewind to slot 0 (in place, no reallocation). *)
