(** Threshold policy with hysteresis: loss estimate → channel level.

    A policy is an ordered ladder of channel levels, benign to severe.
    Each level above the baseline has an [enter] threshold (the estimate
    at which the level becomes warranted) and a lower [exit] threshold
    (the estimate below which the level is abandoned); the gap between
    them is the hysteresis band, so an estimate oscillating around a
    single threshold never commits a transition. On top of the band, a
    transition must be confirmed: the same candidate level must win
    [dwell] consecutive observations before it commits — a lone bad
    window (a burst the {!Estimator} partially absorbed) proposes a
    candidate once and is forgotten.

    Escalation jumps directly to the highest warranted level and
    de-escalation to the lowest sustainable one, so a single sustained
    channel-state change commits a single transition (one program swap),
    not a stairway of them. *)

type level = {
  name : string;
  enter : float;  (** estimate at/above which this level is warranted *)
  exit : float;  (** estimate below which this level is abandoned *)
  boost : int;  (** extra per-item redundancy requested at this level *)
}

val level : ?boost:int -> ?enter:float -> ?exit:float -> string -> level
(** Convenience constructor; [boost], [enter], [exit] default to 0. *)

type t

val create : ?dwell:int -> level list -> t
(** [create ~dwell levels]: [levels] ordered benign → severe; the head is
    the baseline (its thresholds are ignored). [dwell] (default 3) is the
    number of consecutive confirmations a transition needs, [>= 1].
    Raises [Invalid_argument] unless each non-baseline level has
    [0 <= exit < enter <= 1] and both thresholds strictly increase along
    the ladder. *)

val current_level : t -> level

val levels : t -> level array

val observe : t -> float -> int option
(** Feed one loss-rate estimate (one decision epoch). [Some i] when a
    transition to level [i] commits this epoch; [None] otherwise. *)
