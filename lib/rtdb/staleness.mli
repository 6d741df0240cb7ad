(** Update dissemination and temporal consistency on a broadcast disk.

    A real-time database item is re-sampled at the server every
    [update_period] slots; the broadcast carries the latest version, and a
    version takes effect at the next {e broadcast-period boundary} (so a
    file's dispersed blocks within one period all come from one version —
    IDA reconstruction must never mix versions). A client that is
    mid-collection when the version changes discards its stale pieces and
    starts over — which means updates arriving faster than a retrieval
    completes can {e starve} clients, an effect {!sweep} measures.

    On retrieval completion, the item's {e age} is the time since the
    version it reconstructed was sampled at the server. Absolute temporal
    consistency (the paper's AWACS example) demands age <= the item's
    validity interval at every use. *)

type outcome = {
  latency : int;  (** slots from tune-in to reconstruction, inclusive *)
  age_at_completion : int;
      (** slots between the reconstructed version's sampling instant and
          the completion slot *)
  restarts : int;  (** collections abandoned because the version changed *)
}

val retrieve :
  program:Pindisk.Program.t -> file:int -> needed:int ->
  update_period:int -> start:int -> outcome option
(** Deterministic (fault-free) retrieval under versioning. Versions are
    sampled at slots [0, update_period, 2·update_period, …] and take
    effect at the next multiple of the broadcast period. [None] when the
    retrieval starves past 50 data cycles. Raises
    [Invalid_argument] if the file is absent or [needed] exceeds its
    capacity. *)

type summary = {
  trials : int;
  starved : int;  (** retrievals that never completed *)
  mean_latency : float;  (** over completed retrievals *)
  max_latency : int;
  mean_age : float;
  max_age : int;
  consistency_ratio : float;
      (** fraction of trials completing with [age_at_completion <= avi] *)
  mean_restarts : float;
}

val sweep :
  program:Pindisk.Program.t -> file:int -> needed:int ->
  update_period:int -> avi:int -> summary
(** {!retrieve} from every tune-in slot of one full cycle
    (lcm of data cycle, update period and broadcast period),
    aggregated; starved retrievals count against consistency. *)
