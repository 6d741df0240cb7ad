(** The broadcast server: a plan dispatcher wired to the {!Block_store}.

    Two cursors walk the same {!Pindisk_pinwheel.Plan}: the {b air}
    cursor names the slot going out now, and the {b prefetch} cursor
    runs [lookahead] slots ahead, submitting the read that will feed
    each busy slot. A read whose service time exceeds the prefetch lead
    misses its slot; the slot airs {!Faulted} — from a client's point of
    view indistinguishable from a channel loss, which is the point.

    The server is driven entirely by its {e logical} slot: latency
    verdicts are pure functions of (read id, issue slot), and both are
    replayed identically after a {!restore}. That is the determinism
    contract behind crash-restart recovery — a server restored from a
    checkpoint at slot [K] airs, from [K] on, the byte-identical
    sequence of the uninterrupted run. *)

module Ida = Pindisk_ida.Ida
module Plan = Pindisk_pinwheel.Plan

type fault_reason =
  | Read_late of int  (** the feeding read completes at the carried slot *)
  | Read_failed
  | Queue_overflow

type output =
  | Piece of int * Ida.piece  (** file id and the piece on the air *)
  | Idle  (** the plan airs nothing at the slot *)
  | Faulted of fault_reason  (** busy slot, but the read missed it *)

type t

val create : ?lookahead:int -> plan:Plan.t -> Block_store.t -> t
(** A server at slot 0 with the first [lookahead] (default 4, [>= 1])
    slots' reads already submitted (issued at slot 0). The plan period
    must be a positive multiple of the program period, and every plan
    task must be a stored file; raises [Invalid_argument] otherwise. *)

val slot : t -> int
(** The slot {!step} will air next. *)

val step : t -> int * output
(** Air one slot: submit the prefetch read for [slot + lookahead], then
    resolve the read due now. Returns [(slot aired, what went out)]. *)

val checkpoint : t -> Checkpoint.t
(** Snapshot the complete volatile state (cursors, occurrence counters,
    read-id counter, outstanding queue). Pure — does not disturb the
    server. *)

val restore :
  ?lookahead:int -> plan:Plan.t -> Block_store.t -> Checkpoint.t ->
  (t, string) result
(** Rebuild a server from a checkpoint over the same durable
    configuration: the same plan, a block store over the same program
    and latency process, and the same [lookahead] as the checkpointed
    server. Fails if the checkpoint's program digest or period disagree
    with what it is being restored onto. The restored server's
    {!step} stream is slot-for-slot identical to the checkpointed
    server's. *)
