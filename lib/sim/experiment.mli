(** Batched stochastic retrieval experiments.

    Runs many independent clients against a program under a fault model and
    aggregates latency and deadline statistics — the workhorse behind the
    fault-model ablation (E9) and the examples. *)

type summary = {
  trials : int;
  completed : int;  (** retrievals that finished within the slot budget *)
  missed_deadline : int;  (** completed late or not at all *)
  mean_latency : float;  (** over completed retrievals; [nan] if none *)
  max_latency : int;  (** 0 if none completed *)
  min_latency : int;  (** 0 if none completed *)
  total_losses : int;
}

val pp_summary : Format.formatter -> summary -> unit

val run :
  program:Pindisk.Program.t -> file:int -> needed:int -> deadline:int ->
  fault:(seed:int -> Fault.t) -> trials:int -> seed:int -> summary
(** [run ~program ~file ~needed ~deadline ~fault ~trials ~seed] starts
    [trials] clients at uniformly random tune-in slots within one data
    cycle (deterministic in [seed]), each with a fresh fault process
    [fault ~seed:k]. Raises [Invalid_argument] when [trials < 1] or when
    {!Client.retrieve} rejects the request (unknown or never-broadcast
    file, [needed] below 1 or beyond the file's capacity). *)

val miss_ratio : summary -> float
(** [missed_deadline / trials]. *)
