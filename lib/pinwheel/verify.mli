(** Independent verification of schedules against pinwheel conditions.

    Every scheduler in this library is validated end-to-end against this
    module, which re-checks the produced cyclic schedule against the
    {e original} conditions by exhaustive sliding-window counting. Because
    the schedule repeats with its period, checking all windows that start
    within one period is exhaustive over the biinfinite schedule. *)

type violation = { task : int; a : int; b : int; window_start : int; found : int }
(** A witness: the window of [b] slots starting at [window_start] contains
    only [found < a] occurrences of [task]. *)

val window_counts : Schedule.t -> task:int -> window:int -> int array
(** [window_counts s ~task ~window] is the array, indexed by window start
    slot within one period, of the number of occurrences of [task] in the
    [window] consecutive slots beginning there. The doubled-period
    prefix-sum scaffolding of {!check_pc}, and
    the primitive the design auditor ([pindisk.check]) counts fault-level
    windows with. [window] may exceed the schedule period. Raises
    [Invalid_argument] if [window < 1]. *)

val check_pc : Schedule.t -> task:int -> a:int -> b:int -> violation option
(** [check_pc s ~task ~a ~b] is [None] iff schedule [s] satisfies
    [pc(task, a, b)]: at least [a] occurrences of [task] in every [b]
    consecutive slots. *)

val check_task : Schedule.t -> Task.t -> violation option

val check_system : Schedule.t -> Task.system -> violation list
(** All violations, empty iff the schedule satisfies every task's
    condition. O(n·period) — use {!satisfies} when only the boolean is
    needed. *)

val satisfies_plan : Plan.t -> Task.system -> bool
(** [satisfies_plan plan sys] holds iff no slot of the plan is claimed
    twice and the plan satisfies every task's condition. One period's
    occurrences are listed in closed form ({!Plan.iter_occurrences}). A
    slot claimed twice is found by a bitmap of the period when that costs
    at most a word per occurrence, else by sorting the occurrences; each
    task's slots are sorted unless already ascending, and [pc(a, b)] is
    then a gap condition on consecutive occurrence indices
    ([O_{m+a} - O_m <= b], wrapping across periods). Work and memory
    follow the number of occurrences, not the period; the dispatcher
    never runs. Agrees exactly with the window-counting verifier on
    schedules, and with a dispatcher walk on collision-free plans (the
    test suite cross-checks both). *)

val satisfies : Schedule.t -> Task.system -> bool
(** [satisfies_plan] of the {!Plan.explicit} schedule: [check_system _ _ =
    []] in O(period + n) instead of O(n·period). One pass tags each slot
    with its task (one lookup per run of a task id), a second lists each
    checked task's slots, already ascending; no slot can be claimed
    twice, so there is nothing to sort or to check for collisions. *)
