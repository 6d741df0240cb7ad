(** One entry point over all pinwheel schedulers.

    The paper needs exactly one contract from pinwheel theory: a procedure
    that, given a task system of bounded density, produces a schedule
    (Chan & Chin's 7/10 bound powers Equations 1 and 2). This module is that
    procedure, and its one product is a {!Plan.t}, the schedule's closed
    form. [Auto] tries the cheap constructions first and falls back to
    exhaustive search on small instances; every plan returned has been
    verified against the input system. {!Plan.to_schedule} materializes a
    plan for callers that print or project the slot array. *)

type algorithm =
  | Sa  (** single-integer reduction (power-of-two specialization) *)
  | Sx  (** multi-base single-chain specialization *)
  | Sr  (** rotation: round-robin within residue classes ({!Rotation}) *)
  | Sxy  (** two-chain timeline splitting *)
  | Exact_small  (** exhaustive state-space search (unit systems only) *)
  | Auto  (** [Sx], then [Sr], then [Sxy], then [Exact_small] when small *)

val pp_algorithm : Format.formatter -> algorithm -> unit

val plan : ?algorithm:algorithm -> Task.system -> Plan.t option
(** [plan sys] is a verified dispatch plan for [sys], or [None] if the
    chosen algorithm fails (which for [Exact_small] on a unit system
    means the instance is genuinely infeasible, and otherwise only means
    this heuristic failed). Default algorithm: [Auto]. A
    {!Density.classify} pre-check skips all construction on provably
    infeasible systems. Each construction verifies its plan by the plan's
    occurrences in closed form ({!Verify.satisfies_plan}), so the cost
    follows the occurrences, not the period; no hyperperiod array is
    allocated unless the [Exact_small] fallback fires (whose output is
    inherently explicit, and checked by {!Exact.decide}). Raises
    [Invalid_argument] on systems with duplicate ids or an empty
    system. *)

val guaranteed_density : algorithm -> Pindisk_util.Q.t option
(** Density up to which the algorithm provably always succeeds on unit
    systems: [1/2] for [Sa]/[Sx]/[Sxy]/[Auto] (inherited from [Sa] — the
    measured thresholds are higher, see experiment E6), [None] for [Sr]
    (no uniform density guarantee; it is complete on a different axis —
    window-multiple structure) and [Exact_small] (complete, no density
    bound applies). *)
