(** Streaming descriptive statistics for simulation results.

    An accumulator collects observations one at a time; summaries (mean,
    variance, percentiles) are computed on demand. Observations are kept
    run-length encoded (percentiles need them), so memory is linear in
    the number of {e distinct additions}, not the total weight — a
    cohort engine can account for millions of identical clients with
    one [add_weighted] call. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 16, at least 1) is how many entries the
    accumulator holds before its arrays first grow (they double). A
    caller that knows how many additions are coming sizes it once, so no
    array is allocated and dropped on the way. *)

val add : t -> float -> unit
val add_int : t -> int -> unit

val absorb : t -> t -> unit
(** [absorb t other] appends [other]'s recorded multiset into [t] in
    [other]'s insertion order — equivalent to replaying [other]'s
    [add_weighted] calls against [t] (same float accumulation), so
    absorbing engines' accumulators in a fixed order is deterministic.
    [other] is unchanged. Raises [Invalid_argument] when [t == other]. *)

val add_weighted : t -> float -> int -> unit
(** [add_weighted t x w] records [w] copies of [x] in O(1). A weight of
    [0] is a no-op; negative weights raise [Invalid_argument]. With
    [w = 1] this is exactly [add] (same float accumulation), so mixed
    weighted/unweighted use stays bit-compatible with the unweighted
    API. All summaries below treat the accumulator as the multiset it
    denotes: [count] is total weight, percentiles interpolate between
    weighted order statistics, etc. *)

val entries : t -> int
(** Stored entries: one per [add], per positive-weight [add_weighted],
    and per entry [absorb] copied — the [capacity] an accumulator
    absorbing [t] needs for it. *)

val count : t -> int
(** Total weight of the recorded multiset (= number of [add] calls when
    only the unweighted API is used). *)

val total : t -> float

val mean : t -> float
(** [nan] when empty. *)

val variance : t -> float
(** Population variance; [nan] when empty. Computed in two passes over the
    stored observations (centered sum of squares), so it stays accurate
    for large-offset data where the naive streaming formula cancels. *)

val min_value : t -> float
(** Raises [Invalid_argument] when empty. *)

val max_value : t -> float
(** Raises [Invalid_argument] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0, 100], by linear interpolation between
    order statistics (the common "exclusive" definition). Raises
    [Invalid_argument] when empty or [p] out of range. *)

val median : t -> float

val pp_summary : Format.formatter -> t -> unit
(** "n=…, mean=…, sd=…, min/median/p99/max=…". *)
