(** Exact rational arithmetic over native integers.

    Densities in pinwheel scheduling are sums of fractions [a/b] with tiny
    numerators and denominators, but schedulability thresholds (1/2, 7/10,
    5/6, 1) sit exactly on rational boundaries, so floating point cannot be
    trusted to classify instances at the boundary. All library-internal
    density computations therefore use this module.

    Values are kept in normal form: the denominator is positive and
    [gcd |num| den = 1]. Arithmetic whose intermediate products would
    overflow a native [int] raises {!Pindisk_util.Intmath.Overflow}; sums
    scale by the lcm of the denominators, not their product, and
    comparisons never overflow. *)

type t = private { num : int; den : int }

val make : int -> int -> t
(** [make num den] is the normalized rational [num/den]. Raises
    [Invalid_argument] if [den = 0]. *)

val of_int : int -> t

val zero : t
val one : t

val add : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** [div] raises [Division_by_zero] on a zero divisor. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val max : t -> t -> t

val sum : t list -> t

val to_float : t -> float

val ceil : t -> int
(** Smallest integer [>= t]. *)

val pp : Format.formatter -> t -> unit
(** Prints ["num/den"], or just ["num"] when the denominator is 1. *)

val to_string : t -> string
