(** One entry point over all pinwheel schedulers.

    The paper needs exactly one contract from pinwheel theory: a procedure
    that, given a task system of bounded density, produces a schedule
    (Chan & Chin's 7/10 bound powers Equations 1 and 2). This module is that
    procedure. [Auto] tries the cheap constructions first and falls back to
    exhaustive search on small instances; every schedule returned has been
    re-verified against the input system. *)

type algorithm =
  | Sa  (** single-integer reduction (power-of-two specialization) *)
  | Sx  (** multi-base single-chain specialization *)
  | Sr  (** rotation: round-robin within residue classes ({!Rotation}) *)
  | Sxy  (** two-chain timeline splitting *)
  | Exact_small  (** exhaustive state-space search (unit systems only) *)
  | Auto  (** [Sx], then [Sr], then [Sxy], then [Exact_small] when small *)

val pp_algorithm : Format.formatter -> algorithm -> unit

val plan : ?algorithm:algorithm -> Task.system -> Plan.t option
(** [plan sys] is a verified dispatch plan for [sys] — the lazy
    counterpart of {!schedule}, produced by the same algorithm choices on
    the same code path, so [Option.map Plan.to_schedule (plan sys)] equals
    [schedule sys] slot for slot. A {!Density.classify} pre-check skips
    all construction on provably infeasible systems. Verification lists
    the plan's occurrences in closed form ({!Verify.satisfies_plan}), so
    its cost follows the occurrences, not the period; no hyperperiod
    array is allocated unless the [Exact_small] fallback fires (whose
    output is inherently explicit). Raises like {!schedule}. *)

val schedule : ?algorithm:algorithm -> Task.system -> Schedule.t option
(** [schedule sys] is a verified cyclic schedule for [sys], or [None] if
    the chosen algorithm fails (which for [Exact_small] on a unit system
    means the instance is genuinely infeasible, and otherwise only means
    this heuristic failed). Default algorithm: [Auto]. Raises
    [Invalid_argument] on systems with duplicate ids or an empty system. *)

val schedulable : ?algorithm:algorithm -> Task.system -> bool

val guaranteed_density : algorithm -> Pindisk_util.Q.t option
(** Density up to which the algorithm provably always succeeds on unit
    systems: [1/2] for [Sa]/[Sx]/[Sxy]/[Auto] (inherited from [Sa] — the
    measured thresholds are higher, see experiment E6), [None] for [Sr]
    (no uniform density guarantee; it is complete on a different axis —
    window-multiple structure) and [Exact_small] (complete, no density
    bound applies). *)
