(** The closed loop: reception reports in, program swaps out.

    The controller owns an {!Estimator}, a {!Policy}, a {!Ladder} and a
    {!Swap} holder, and exposes the three per-slot operations a broadcast
    server needs, to be called in this order each slot:

    + {!tick} — install a staged program if the slot is a cycle boundary;
    + {!block_at} / {!report} — serve the slot from the live program and
      feed the reception outcome back to the estimator;
    + {!decide} — whenever the estimator has completed a fresh window,
      consult the policy with the new estimate; when it commits a level
      transition, re-run the ladder off-line (the whole candidate program
      is computed here, outside the broadcast path) and stage the result
      for the next cycle boundary.

    Decisions are paced by estimator windows, not by slots: one fresh
    estimate is one policy observation, so the policy's dwell counts
    independent evidence and cannot be rushed by a fast caller.
    Everything is deterministic: the same report stream yields the same
    estimates, transitions and swaps. *)

type t

val create : estimator:Estimator.t -> policy:Policy.t -> Ladder.t -> t
(** The loop starts at the ladder's baseline plan, installed at slot 0,
    and consults the policy once per completed estimator window. *)

val tick : t -> int -> Swap.entry option
(** Start-of-slot: apply a pending swap at a cycle boundary. *)

val report : t -> lost:bool -> unit
(** One reception report for the current slot (busy slots only). *)

val decide : t -> slot:int -> unit
(** End-of-slot: if a fresh estimator window completed, run estimate →
    policy → ladder and stage any program change. *)

val notify_stall : t -> slot:int -> unit
(** A detected {e server-side} stall (faulted or dead-air slots — e.g. a
    stuck block-store reader, or a crash-restart outage): feeds the
    estimator one full window of loss reports (a stall is a total outage
    for the slots it covered) and runs a decision immediately, so
    sustained stalls climb the degradation ladder exactly like sustained
    channel loss — subject to the same policy dwell. Counted by the
    [adapt.stalls] metric. *)

val block_at : t -> int -> (int * int) option
(** The (file, block) on air at the slot, per the live program. *)

val plan : t -> Ladder.plan
(** The plan whose program is live or staged most recently. *)

val swap_log : t -> Swap.entry list
