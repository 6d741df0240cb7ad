(** Log-bucketed histograms for latencies and batch sizes.

    Two buckets per octave: consecutive bucket boundaries are integer
    approximations of powers of [sqrt 2], computed with integer
    arithmetic only (an integer square root for the half-octave point),
    so bucketing is deterministic across platforms. Values [<= 0] land
    in a dedicated bucket 0; the top bucket ends at [max_int], so every
    native [int] has a bucket. [count]/[sum]/[min]/[max] are tracked
    exactly; only the distribution is approximated.

    A histogram is a plain mutable structure, {e not} domain-safe:
    record into one from a single domain (the sharded counters in
    {!Registry} are the multi-domain primitive). *)

type t

val create : unit -> t

val observe : t -> int -> unit
(** Record one sample. *)

val observe_n : t -> int -> int -> unit
(** [observe_n t v n] records [n] copies of sample [v] in O(1) —
    equivalent to [n] calls to [observe t v]. [n = 0] is a no-op;
    negative [n] raises [Invalid_argument]. Lets weighted-cohort
    producers feed class-sized observations without a per-member loop. *)

val count : t -> int
val sum : t -> int

val min_value : t -> int
(** Exact smallest sample; [0] when empty. *)

val max_value : t -> int
(** Exact largest sample; [0] when empty. *)

val reset : t -> unit
(** Zero in place; handles stay valid. *)

(** {1 Bucket geometry} (exposed for snapshots and tests) *)

val bucket_count : int

val bucket_of : int -> int
(** Monotone: [v <= w] implies [bucket_of v <= bucket_of w]. *)

val bucket_bounds : int -> int * int
(** Inclusive [(lo, hi)] value range of a bucket index. Bucket [0] is
    [(min_int, 0)]. Some low buckets are empty ([hi < lo]) where the
    integer half-octave point collides with the octave boundary;
    [bucket_of] never selects those. *)

val buckets : t -> (int * int) list
(** Sparse non-zero [(bucket index, count)] pairs, ascending. *)
