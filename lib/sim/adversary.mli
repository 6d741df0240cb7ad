(** Exact worst-case retrieval analysis under adversarial block errors.

    The paper's Figure 7 tabulates {e worst-case} delays as a function of
    the number of transmission errors. This module computes those numbers
    exactly: an adversary who knows the program chooses which [r]
    receptions to ruin, and the tune-in slot, to maximize the client's
    retrieval time. The computation is a memoized search over
    (position in data cycle, set of blocks already collected, errors left)
    — exact, not a bound — so it is limited to files with capacity at most
    20 (the collected set is a bitmask). *)

val retrieval_from :
  Pindisk.Program.t -> file:int -> needed:int -> errors:int -> start:int -> int
(** The worst-case retrieval time (slots, tune-in through completion,
    inclusive) for a client tuning in at exactly [start], against an
    adversary ruining at most [errors] receptions of this file. Same
    preconditions as {!worst_case_retrieval}. *)

val worst_case_retrieval :
  Pindisk.Program.t -> file:int -> needed:int -> errors:int -> int
(** The maximum, over tune-in slots and over adversarial choices of at most
    [errors] ruined receptions of this file, of the retrieval time in slots
    (tune-in through completion, inclusive). Raises [Invalid_argument] when
    the file is absent, [needed] exceeds its capacity, or the capacity
    exceeds 20. *)

val worst_case_delay :
  Pindisk.Program.t -> file:int -> needed:int -> errors:int -> int
(** [worst_case_retrieval errors - worst_case_retrieval 0]: the extra
    worst-case wait attributable to the errors — the quantity Lemma 1
    bounds by [r·τ] and Lemma 2 by [r·Δ]. *)
