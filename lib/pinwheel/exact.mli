(** Exact schedulability of a pinwheel system, by a search bounded by the
    states it explores.

    The pinwheel problem is PSPACE-hard in general. This module walks the
    deadline automaton depth-first: a state holds, per task [(i, a, b)],
    the deadlines of its next [a] required occurrences. The walk serves
    the most urgent task first and idles last, treats tasks with equal
    [(a, b)] as interchangeable, prunes a state whose k-th earliest
    deadline falls before slot k (one occurrence per slot), and remembers
    the states it has exhausted. It stops at the first state repeated on
    its path: that cycle is a valid cyclic schedule, repeated with
    relabelled tasks until the permutation of interchangeable tasks
    closes. Exhausting every state reachable from the all-slack start
    proves that no infinite schedule exists.

    It is [Scheduler]'s last stage and the ground truth the heuristics
    are tested against: it proves, e.g., the paper's Example-1 claim that
    [{(1,1,2), (2,1,3), (3,1,n)}] is infeasible, and, taking multi-unit
    tasks as they are, measures what the exact-period decomposition
    ({!Task.decompose_units}) gives up (experiment E16). *)

type result =
  | Feasible of Schedule.t  (** a verified cyclic schedule *)
  | Infeasible  (** no infinite schedule exists: proof by exhaustion *)
  | Too_large  (** [max_states] states explored without a decision *)

val decide : ?max_states:int -> Task.system -> result
(** [decide sys] decides schedulability of [sys], exploring at most
    [max_states] states (default [100_000]); a state of [k > 32]
    deadlines counts as [k/32] states, so memory and time stay within
    those of [max_states] states of 32. Raises [Invalid_argument] on a
    system with duplicate ids, or an empty system. *)
