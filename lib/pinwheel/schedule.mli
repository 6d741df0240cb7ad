(** Cyclic schedules for pinwheel task systems.

    A schedule is an infinite function from slots to tasks; every schedule
    this library produces is cyclic, so it is represented by one period of
    slot assignments, repeated biinfinitely. Slot value {!idle} means the
    resource is unallocated for that slot (the "[X]" of the paper's second
    example). *)

val idle : int
(** The idle marker, [-1]. *)

type t = private { period : int; slots : int array }
(** [slots.(t mod period)] is the task id broadcast in slot [t], or
    {!idle}. *)

val make : int array -> t
(** [make slots] wraps one period of assignments. Raises [Invalid_argument]
    if empty or if any entry is [< -1]. The array is copied. *)

val adopt : int array -> t
(** [adopt slots] is [make slots] without the copy: the schedule keeps
    [slots], which the caller must not mutate afterwards. For builders
    that fill a fresh period array themselves. *)

val period : t -> int

val task_at : t -> int -> int
(** [task_at s t] for any [t >= 0] (reduced mod the period). *)

val occurrences : t -> int -> int list
(** Slots within [0, period) assigned to the given task id, ascending. *)

val count : t -> int -> int
(** Occurrences of a task id per period. A direct fold over the slot
    array — no occurrence list is built. *)

val fold_occurrences : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** [fold_occurrences s i f init] folds [f] over the slots of one period
    assigned to [i], in ascending slot order, without allocating the
    occurrence list. *)

val task_ids : t -> int list
(** Distinct non-idle ids appearing in the schedule, ascending. *)

val utilization : t -> Pindisk_util.Q.t
(** Fraction of non-idle slots per period. *)

val max_gap : t -> int -> int option
(** [max_gap s i] is the maximum number of slots strictly between two
    consecutive occurrences of [i] plus one — i.e. the worst wait, starting
    just after an occurrence of [i], until the next occurrence (cyclically).
    [None] if [i] never occurs. For a task occurring with exact period [p]
    this is [p]. *)

val map_tasks : t -> (int -> int) -> t
(** [map_tasks s f] renames every non-idle slot through [f] (which may
    return {!idle}). Used to project schedules over pseudo-tasks — the
    [map(i', i)] aliases of the pinwheel algebra — onto the files they
    broadcast. *)

val pp : Format.formatter -> t -> unit
(** Prints the period as e.g. ["1 2 1 . 2"] ([.] for idle). *)
