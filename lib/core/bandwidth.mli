(** Bandwidth bounds for real-time fault-tolerant broadcast disks
    (Section 3.2, Equations 1 and 2).

    The trivial lower bound on the bandwidth [B] (blocks/sec) needed to
    meet every file's latency is [Σ (m_i + r_i) / T_i]. The paper's upper
    bound rests on Chan & Chin's 7/10 density theorem: a bandwidth of
    [⌈(10/7)·Σ (m_i + r_i)/T_i⌉] makes the pinwheel system
    [{(i, m_i + r_i, B·T_i)}] schedulable — at most 43% above the lower
    bound. {!minimum} searches for the smallest bandwidth {e this library's}
    schedulers actually realize, which experiment E3/E4 compares against
    both bounds. *)

module Q = Pindisk_util.Q
module Task = Pindisk_pinwheel.Task

val demand : File_spec.t list -> Q.t
(** [Σ (m_i + r_i) / T_i], the trivial bandwidth lower bound in
    blocks/sec (fault-tolerant demand; with all tolerances 0 this is the
    Equation-1 demand [Σ m_i / T_i]). *)

val required : File_spec.t list -> int
(** Equation 2 (and Equation 1 when all [r_i = 0]):
    [⌈(10/7) · demand⌉] blocks/sec — sufficient under the 7/10 density
    theorem. Raises [Invalid_argument] on the empty list. *)

val tasks : bandwidth:int -> File_spec.t list -> Task.system
(** The pinwheel system [{(i, m_i + r_i, B·T_i)}] at the given bandwidth. *)

val schedulable : bandwidth:int -> File_spec.t list -> bool
(** Whether {!Pindisk_pinwheel.Scheduler.plan} places the system at that
    bandwidth. *)

val minimum : File_spec.t list -> int option
(** The smallest bandwidth (searched upward from [⌈demand⌉]) at which
    {!Pindisk_pinwheel.Scheduler.plan} succeeds, where
    [Shard.design ~channels:1] builds the program. Searches up to twice
    {!required}; [None] beyond that (never observed: density halves by
    then, meeting the schedulers' 1/2 guarantee). *)

val overhead : achieved:int -> File_spec.t list -> float
(** [achieved / demand]: 1.0 is perfect; the paper guarantees [<= ~1.43]
    at {!required}. *)
