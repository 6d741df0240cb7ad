(** Block-loss processes for the broadcast channel.

    The paper assumes "individual transmission errors occur independently of
    each other, and the occurrence of an error during the transmission of a
    block renders the entire block unreadable". {!bernoulli} is exactly that
    model; {!burst} (a Gilbert–Elliott two-state chain) adds the time
    correlation real wireless channels exhibit, used by the fault-model
    ablation (E9); {!deterministic} scripts losses for tests.

    A process moves forward in slot order: {!advance} returns the
    verdict for the current slot, and {!skip} passes over slots whose
    verdicts nobody reads. Every verdict is a pure function of the seed,
    the slot [o] the process was last started at ({!reset_to}; 0 at
    creation) and the slot itself, so a per-slot walk and a jump read
    the same verdicts. The stream has the key
    [k = mix64 (mix64 (seed lxor gamma) + o)], with
    {!Pindisk_util.Intmath.mix64} and the odd constant
    [gamma = 0x278dde6e5fd29f05]; its counter [c] reads the 53-bit
    integer [n c = mix64 (k + c·gamma) lsr 9]. Slot [o + i] is lost
    when [n i < ⌈p·2⁵³⌉], that is when the float [n i · 2⁻⁵³] is below
    the loss probability [p] in force.

    {!burst} starts in the good state, as if at relative slot -1, and
    draws each sojourn length once: its [j]-th sojourn ([j = 1, 2, …])
    in a state left with probability [q] lasts
    [1 + ⌊log u / log (1 - q)⌋] slots, for [u = (n (-j) + 1)·2⁻⁵³], a
    geometric law of mean [1/q] (never ending when [q = 0]). Each slot
    is judged in the state in force at it, so a state change drawn to
    end a sojourn at slot [s] takes effect at [s]: the same law as a
    chain that steps, then judges, slot by slot. {!skip} only moves the
    slot, and {!advance} first takes the state changes since the slot it
    last judged, so a process costs O(judged slots + state changes),
    whatever it skips.

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
(** Restart the process at the given absolute slot: the stochastic
    models start the stream keyed by that slot (and {!burst} its good
    state), so two runs from the same slot see the same losses. *)

val advance : t -> bool
(** The loss verdict for the current slot; moves to the next slot. *)

val skip : t -> int -> unit
(** [skip t k] is [k] calls to {!advance} with the verdicts discarded,
    in O(1): the later verdicts are the ones those calls would have
    left. Raises [Invalid_argument] when [k < 0]. *)

val loss_rate : t -> float
(** The long-run expected loss probability of the process (0 for
    [deterministic]). *)
