(** Exact schedulability for small {e multi-unit} pinwheel systems.

    {!Exact} decides single-unit systems with a slack-vector automaton;
    multi-unit conditions ([a] out of every [b] consecutive slots) need
    the full occupancy history of the last [b - 1] slots per task, so the
    state space is [Π 2^(b_i - 1)] — tractable only for tiny instances,
    but enough to {e calibrate} the exact-period decomposition
    ({!Task.decompose_units}) that the constructive schedulers use: the
    decomposition is sufficient, not necessary, and experiment E16
    measures how many feasible multi-unit systems it misses.

    A state is live when some successor keeps every completed window
    (each slot completes the window of the previous [b] slots) at [>= a]
    occurrences; schedulability is reachability of a live cycle, exactly
    as in {!Exact}. *)

type result = Feasible of Schedule.t | Infeasible | Too_large

val decide : Task.system -> result
(** [decide sys] decides any pinwheel system exactly, or answers
    [Too_large] when [Π 2^(b_i - 1)] exceeds [1_000_000]. Raises
    [Invalid_argument] on empty systems or duplicate ids. *)
