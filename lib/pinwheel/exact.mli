(** Exact schedulability decision for small single-unit pinwheel systems.

    The pinwheel problem is PSPACE-hard in general, but small instances are
    decided exactly by search over the deadline-vector automaton: the state
    is, per task, the number of slots remaining before the window constraint
    forces the task to be served. An infinite schedule exists iff the initial
    (all-slack) state can reach a cycle of "live" states; the cycle itself is
    a valid cyclic schedule.

    This is the ground truth the heuristic schedulers (and the paper's
    density thresholds) are tested against: it certifies both feasibility
    (with a verified schedule) and {e infeasibility} — e.g. it proves the
    paper's Example-1 claim that [{(1,1,2), (2,1,3), (3,1,n)}] is infeasible.

    Only single-unit systems ([a = 1]) are supported; multi-unit tasks can be
    decomposed first with {!Task.decompose_units}, though the decomposition
    is sufficient, not necessary, so infeasibility of the decomposition does
    not certify infeasibility of the original system. *)

type result =
  | Feasible of Schedule.t  (** a verified cyclic schedule *)
  | Infeasible  (** no infinite schedule exists: proof by exhaustion *)
  | Too_large  (** state space exceeds [max_states]; not attempted *)

val decide : ?max_states:int -> Task.system -> result
(** [decide sys] decides schedulability of the single-unit system [sys].
    [max_states] (default [2_000_000]) bounds the product of window sizes.
    Raises [Invalid_argument] on a non-unit system, a system with duplicate
    ids, or an empty system. *)

val is_feasible : Task.system -> bool option
(** [Some true]/[Some false] when {!decide} at its default [max_states]
    decides, [None] when too large. *)
