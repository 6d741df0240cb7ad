(** Online channel-loss estimation from per-slot reception reports.

    The server cannot see the channel directly; it sees a stream of
    reception reports (one per busy slot, from monitoring clients or the
    {!Pindisk_sim.Client} feedback hook) saying whether that slot's block
    arrived. The estimator turns that stream into a loss-rate estimate
    robust enough to drive redundancy re-allocation: reports are batched
    into fixed-size windows, and the per-window raw rates are smoothed
    with an EWMA. A short burst moves one window's raw rate but only a
    fraction [alpha] of the estimate; sustained degradation moves every
    subsequent window and the estimate converges to the new rate — the
    distinction the {!Policy} dwell requirement then exploits. *)

type t

val create : ?alpha:float -> ?window:int -> unit -> t
(** [alpha] (default 0.4) is the EWMA smoothing weight in (0, 1];
    [window] (default 32) is the number of reception reports per raw-rate
    sample, [>= 1]. Raises [Invalid_argument] otherwise. *)

val observe : t -> lost:bool -> unit
(** Feed one reception report. *)

val estimate : t -> float
(** The current smoothed loss-rate estimate in [0, 1]; [0.0] until the
    first window completes. *)

val windows : t -> int
(** Completed windows so far. *)

val window : t -> int
(** The configured reports-per-window size. *)
