(** Exact integer arithmetic helpers used throughout pindisk.

    All functions operate on native [int]s. The quantities manipulated by the
    library (window sizes, block counts, hyperperiods) are small, but several
    helpers ([lcm], [pow]) guard against overflow by raising [Overflow] rather
    than silently wrapping. *)

exception Overflow
(** Raised when an exact result does not fit in a native [int]. *)

val gcd : int -> int -> int
(** [gcd a b] is the non-negative greatest common divisor of [a] and [b].
    [gcd 0 0 = 0]. *)

val lcm : int -> int -> int
(** [lcm a b] is the least common multiple of [a] and [b]; raises [Overflow]
    if it exceeds [max_int]. [lcm 0 x = 0]. *)

val lcm_list : int list -> int
(** Least common multiple of a list, [1] for the empty list. *)

val mul_exn : int -> int -> int
(** Exact multiplication; raises [Overflow] if the product does not fit. *)

val pow : int -> int -> int
(** [pow base e] is [base]{^ [e]} for [e >= 0]; raises [Overflow] on
    overflow and [Invalid_argument] for negative exponents. *)

val floor_div : int -> int -> int
(** [floor_div a b] rounds the quotient toward negative infinity ([b > 0]). *)

val ceil_div : int -> int -> int
(** [ceil_div a b] rounds the quotient toward positive infinity ([b > 0]). *)

val floor_log2 : int -> int
(** [floor_log2 n] is the largest [k] with [2]{^ [k]}[ <= n]; requires
    [n >= 1]. *)

val is_power_of_two : int -> bool
(** [is_power_of_two n] holds iff [n] is a positive power of two (1, 2, 4, …). *)

val mix64 : int -> int
(** [mix64 x] is splitmix64's avalanche finalizer applied to [x]: a
    deterministic bijective-style scramble in which adjacent inputs map to
    decorrelated outputs. Use it to derive independent RNG seeds from
    sequential counters ([seed + k] alone makes adjacent streams
    correlated). The result is always in [\[0, 2{^62})]. *)

val sum : int list -> int

val max_list : int list -> int
(** Maximum of a non-empty list; raises [Invalid_argument] on the empty
    list. *)

val min_list : int list -> int
(** Minimum of a non-empty list; raises [Invalid_argument] on the empty
    list. *)
