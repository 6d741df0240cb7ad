(** Conversion of broadcast conditions to {e nice} conjuncts of pinwheel
    conditions (Section 4.2 of the paper).

    A conjunct of pinwheel conditions is {e nice} when no task is
    constrained by more than one condition — the form the density-bounded
    schedulers require. The paper conjectures that finding the
    minimum-density nice conjunct implying a given conjunct is NP-hard and
    gives heuristics; this module implements them:

    - {!tr1}: the whole broadcast condition collapses to a single
      single-unit condition [pc(1, min_j ⌊d⁽ʲ⁾/(m+j)⌋)];
    - {!tr2}: a base condition [pc(m, d⁽⁰⁾)] plus one aliased pseudo-task
      per fault level, improved per-condition with rules R1/R4/R5 (the
      manipulations of Examples 4–6);
    - {!best_single}: a search over {e all} single conditions [pc(a, b)]
      that imply the full conjunct under the R0–R2 implication test (finds
      the paper's optimal [pc(2, 3)] answers of Examples 5 and 6);
    - {!best} picks the lowest-density candidate — always sound, never
      claimed minimal.

    The aliased pseudo-tasks carry the [map(i', i)] semantics of the paper:
    whenever the scheduler serves the pseudo-task, a block of the underlying
    file is broadcast. *)

module Q = Pindisk_util.Q
module Task = Pindisk_pinwheel.Task

type entry = { a : int; b : int; file : int }
(** One pinwheel condition [pc(_, a, b)] destined for a fresh pseudo-task
    that broadcasts blocks of [file]. *)

type nice = entry list
(** A nice conjunct: each entry becomes its own pseudo-task. *)

val density : nice -> Q.t

val tr1 : Bc.t -> nice
(** Transformation rule TR1. Always a single entry. *)

val tr2 : Bc.t -> nice
(** Transformation rule TR2 with the per-condition R1/R4/R5 improvements
    described above. Requires (and {!Bc.make} could not have produced
    otherwise) nothing beyond the [Bc] invariants, but profits from a
    non-decreasing latency vector. *)

val best_single : Bc.t -> nice
(** The minimum-density single condition [pc(a, b)], [b] searched up to the
    largest latency, that implies every conjunct of the broadcast condition
    under {!Rules.implies}. Falls back to [pc(m+r, m+r)] (density 1), which
    trivially implies everything. *)

val best : Bc.t -> string * nice
(** The lowest-density candidate among [tr1], [tr2] and [best_single],
    labelled with the name of the winning transformation. *)

(** {1 Certified conversion}

    Every transformation also emits a {!Trace.t}: the rule-by-rule
    derivation (with side-condition witnesses) establishing that the nice
    conjunct implies the original broadcast condition. The traces are
    {e claims} — re-check them with the independent kernel in
    [pindisk.check] rather than trusting this producer. *)

val tr1_certified : Bc.t -> nice * Trace.t
val tr2_certified : Bc.t -> nice * Trace.t
val best_single_certified : Bc.t -> nice * Trace.t

val best_certified : Bc.t -> string * nice * Trace.t
(** {!best} plus the winning candidate's derivation trace. *)

val compile : Bc.t list -> (Task.t * int) list
(** [compile bcs] converts each broadcast condition with {!best} and
    allocates globally unique pseudo-task ids (starting above the largest
    file id). Each returned pair is the pinwheel task to schedule and the
    file whose blocks it broadcasts. Raises [Invalid_argument] on duplicate
    file ids. *)

val compile_certified : Bc.t list -> (Task.t * int) list * Trace.t list
(** {!compile} plus one derivation trace per broadcast condition, in input
    order. *)
