(** Snapshot-consistent multi-item reads over a versioned broadcast.

    A read-only transaction touching several items must not mix database
    states: if the aircraft position is from epoch 7 and the threat grid
    from epoch 6, the combination may describe a world that never existed
    (the serializability concern the paper cites for broadcast RTDBs).

    With the {!Staleness} versioning discipline (all of an item's blocks
    within a broadcast period come from one version), a transaction is
    {e snapshot-consistent} if every item it reconstructs comes from the
    same update epoch. The client protocol here: harvest all items
    concurrently; when an item completes, record its epoch; if a later
    completion lands in a newer epoch, discard the older items and keep
    collecting until all epochs match. Updates arriving faster than the
    slowest item retrieves can therefore starve the transaction — the
    broadcast analogue of read-only transaction restarts. *)

type read = { file : int; needed : int }

type outcome = {
  elapsed : int;  (** tune-in through the last (consistent) completion *)
  epoch : int;  (** the common epoch of every reconstructed item *)
  restarts : int;  (** item collections discarded on epoch mismatch *)
}

val retrieve :
  program:Pindisk.Program.t -> reads:read list ->
  update_period:int -> start:int -> outcome option
(** Fault-free snapshot retrieval (versioning is the phenomenon under
    study; channel faults compose independently). Epochs advance at
    broadcast-period boundaries per {!Staleness}. [None] when 50 data cycles
    elapse first. Raises [Invalid_argument] on
    an empty or duplicate-file read set, unknown files, or [needed]
    beyond a capacity. *)

type summary = {
  trials : int;
  starved : int;
  mean_elapsed : float;
  max_elapsed : int;
  mean_restarts : float;
}

val sweep :
  program:Pindisk.Program.t -> reads:read list ->
  update_period:int -> summary
(** {!retrieve} from every tune-in slot of one joint cycle. *)
