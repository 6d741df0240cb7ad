(** Window specialization: single- and multi-base integer reduction.

    Specialization replaces each window [b] by a smaller, structured value
    [b' <= b]; by rule R0 of the pinwheel algebra, a schedule for the
    specialized system also serves the original. With chain base [x], a
    window [b >= x] specializes to the largest [x·2^k <= b], losing less
    than a factor of two; the specialized system is then packed losslessly
    by {!Harmonic}.

    [x = 1] gives Holte et al.'s single-integer reduction scheduler [Sa]
    (every window rounded to a power of two), which schedules {e every}
    system of density at most 1/2. Searching all candidate bases ("[Sx]"),
    as in Chan & Chin's reductions, retains the 1/2 guarantee but succeeds
    far beyond it in practice — the density-sweep experiment (E6) measures
    how far. *)


val to_chain : x:int -> int -> int option
(** [to_chain ~x b] is the largest [x·2^k <= b], or [None] when [b < x]. *)

val specialized_density : x:int -> Task.system -> Pindisk_util.Q.t option
(** Density of the system after specializing every window to base [x]
    (counting each task as [a] unit tasks of the specialized window);
    [None] if some window is below [x]. Share sizes are summed per chain
    exponent in integers, so the exact sum costs one rational per
    exponent, not one per task. Raises [Invalid_argument] if [x < 1]. *)

val sa_plan : Task.system -> Plan.t option
(** Single-integer reduction: specialize to base [x = 1], pack with
    {!Harmonic}, and verify the plan against the original system by its
    occurrences in closed form ({!Verify.satisfies_plan}); the plan is
    never materialized. Multi-unit tasks are decomposed into exact-period
    copies. Guaranteed to succeed on unit systems of density <= 1/2. *)

val sx_plan : Task.system -> Plan.t option
(** Multi-base search: tries every plausible chain base — the distinct
    values [floor (b_i / 2^j)] not exceeding the smallest window — picks
    the one with the smallest specialized density (ties to the larger
    base), and packs as {!sa_plan} does. Succeeds whenever {!sa_plan}
    does. *)

val sx_base : Task.system -> int option
(** The base {!sx_plan} would choose (the candidate of minimum specialized
    density among the feasible ones), for introspection. *)
