(** Pinwheel tasks and task systems (Section 3.1 of the paper).

    A pinwheel task [(i, a, b)] asks that the shared resource (one broadcast
    slot per time unit, under the Integral Boundary Constraint) be allocated
    to task [i] for at least [a] out of every [b] consecutive slots. The
    ratio [a/b] is the task's {e density}; the density of a system is the sum
    of its tasks' densities, and a system is schedulable only if its density
    is at most 1 (necessary, not sufficient — see the paper's third example:
    [{(1,1,2); (2,1,3); (3,1,n)}] is infeasible for every finite [n]). *)

module Q = Pindisk_util.Q

type t = { id : int; a : int; b : int }
(** Task [id] must appear in at least [a] of every [b] consecutive slots.
    Invariant (checked by {!make}): [1 <= a <= b] and [id >= 0]. *)

val make : id:int -> a:int -> b:int -> t
(** Raises [Invalid_argument] unless [id >= 0] and [1 <= a <= b]. *)

val unit : id:int -> b:int -> t
(** [unit ~id ~b = make ~id ~a:1 ~b]: the classic single-unit pinwheel
    task. *)

val density : t -> Q.t
(** [a/b], exactly. *)

type system = t list
(** A pinwheel task system sharing a single resource. Well-formed systems
    ({!check_system}) have pairwise-distinct task ids. *)

val check_system : system -> (unit, string) result
(** Checks that ids are distinct. *)

val system_density : system -> Q.t

val is_unit_system : system -> bool
(** True when every task has [a = 1]. *)

val decompose_units : system -> (int * int) list
(** Exact-period decomposition of multi-unit tasks: task [(i, a, b)] becomes
    [a] copies of the pair [(i, b)]. Placing each copy with {e exact} period
    [b] at a distinct offset satisfies [pc(i, a, b)], because every window of
    [b] consecutive slots then contains exactly one occurrence of each copy.
    This is how the schedulers honour multi-unit requirements. *)

val pp_system : Format.formatter -> system -> unit
