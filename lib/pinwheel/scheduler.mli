(** One entry point over all pinwheel schedulers.

    The paper needs exactly one contract from pinwheel theory: a procedure
    that, given a task system of bounded density, produces a schedule
    (Chan & Chin's 7/10 bound powers Equations 1 and 2). This module is that
    procedure, and its one product is a {!Plan.t}, the schedule's closed
    form. [Auto] tries the cheap constructions first and ends with
    {!Exact.decide}'s state-bounded search on unit systems; every plan
    returned has been verified against the input system.
    {!Plan.to_schedule} materializes a plan for callers that print or
    project the slot array. *)

type algorithm =
  | Sa  (** single-integer reduction (power-of-two specialization) *)
  | Sx  (** multi-base single-chain specialization *)
  | Sr  (** rotation: round-robin within residue classes ({!Rotation}) *)
  | Sxy  (** two-chain timeline splitting *)
  | Exact_small  (** {!Exact.decide} at its default budget (unit systems only) *)
  | Auto  (** [Sx], then [Sr], then [Sxy], then [Exact_small] *)

val pp_algorithm : Format.formatter -> algorithm -> unit

val plan : ?algorithm:algorithm -> Task.system -> Plan.t option
(** [plan sys] is a verified dispatch plan for [sys], or [None] if the
    chosen algorithm fails: the instance is infeasible, or the search
    spent its budget. Default algorithm: [Auto]. A
    {!Density.classify} pre-check skips all construction on provably
    infeasible systems. Each construction verifies its plan by the plan's
    occurrences in closed form ({!Verify.satisfies_plan}), so the cost
    follows the occurrences, not the period; no hyperperiod array is
    allocated unless the [Exact_small] search plans (its output is
    inherently explicit, and checked by {!Exact.decide}). Raises
    [Invalid_argument] on systems with duplicate ids or an empty
    system. *)

val guaranteed_density : algorithm -> Pindisk_util.Q.t option
(** Density up to which the algorithm provably always succeeds on unit
    systems: [1/2] for [Sa]/[Sx]/[Sxy]/[Auto] (inherited from [Sa] — the
    measured thresholds are higher, see experiment E6), the bound up to
    which {!Density.classify} says [Guaranteed]. [None] for [Sr] (no
    uniform density guarantee; it is complete on a different axis —
    window-multiple structure) and [Exact_small] (its state budget may run
    out at any density). *)
