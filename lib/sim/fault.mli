(** Block-loss processes for the broadcast channel.

    The paper assumes "individual transmission errors occur independently of
    each other, and the occurrence of an error during the transmission of a
    block renders the entire block unreadable". {!bernoulli} is exactly that
    model; {!burst} (a Gilbert–Elliott two-state chain) adds the time
    correlation real wireless channels exhibit, used by the fault-model
    ablation (E9); {!deterministic} scripts losses for tests.

    A process is stateful and moves one slot at a time, in slot order:
    {!advance} returns the verdict for the current slot, and {!skip}
    passes over slots whose verdicts nobody reads. Either way the
    stochastic models draw the same stream: one draw per slot for
    {!bernoulli}, two (a state flip, then a loss) for {!burst}. A
    stream is seeded from the process's seed and the slot it was last
    started at, lazily, at its first draw.

    Every probability must lie in [[0, 1]]; anything else, NaN included,
    raises [Invalid_argument "Fault.<model>: <name> must be in [0, 1]"]. *)

type t

val none : unit -> t
(** Never loses a block. *)

val bernoulli : p:float -> seed:int -> t
(** Independent loss with probability [p] per slot, [0 <= p <= 1]. *)

val burst :
  p_good_to_bad:float -> p_bad_to_good:float -> loss_good:float ->
  loss_bad:float -> seed:int -> t
(** Gilbert–Elliott: a two-state Markov chain toggling between a good state
    (loss probability [loss_good]) and a bad state ([loss_bad]). Starts in
    the good state. *)

val deterministic : (int -> bool) -> t
(** [deterministic f]: slot [t] is lost iff [f t] ([t] counts slots
    passed by {!advance} and {!skip}, starting at the slot given to
    {!reset_to}, default 0). [f] is evaluated only at the slots
    {!advance} judges, so it must be pure. *)

val reset_to : t -> int -> unit
(** Restart the process at the given absolute slot (re-seeds the stochastic
    models deterministically, so two runs from the same slot see the same
    losses). *)

val advance : t -> bool
(** The loss verdict for the current slot; moves to the next slot. *)

val skip : t -> int -> unit
(** [skip t k] is [k] calls to {!advance} with the verdicts discarded:
    {!burst} still steps its chain, and both stochastic models draw
    exactly what those calls would have. Raises [Invalid_argument] when
    [k < 0]. *)

val loss_rate : t -> float
(** The long-run expected loss probability of the process (0 for
    [deterministic]). *)
