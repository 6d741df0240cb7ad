(** Broadcast programs: what the server actually transmits, slot by slot.

    A broadcast program is an infinite function from time slots to blocks.
    It factors into two cyclic layers (Section 2.3 and Figure 6 of the
    paper):

    - the {e broadcast period}: a cyclic {!Pindisk_pinwheel.Schedule.t}
      assigning each slot a file (or idle) — enough slots per period for
      every file to be reconstructed;
    - the {e program data cycle}: the [k]-th transmission of file [i]
      carries dispersed block [k mod N_i], so consecutive transmissions of
      a file carry {e distinct} blocks, cycling through all [N_i] on-air
      blocks. The data cycle is the period after which slot {e contents}
      (not just file labels) repeat.

    With [N_i = m_i] and no dispersal this degenerates to the flat program
    of Figure 5 (the same physical block returns only once per data
    cycle); with IDA it is the AIDA-based program of Figure 6. The
    paper's headline construction (Section 3.2), which plans the pinwheel
    system [{(i, m_i + r_i, B·T_i)}] and cycles the [N_i] pieces, is
    {!Shard.design}: with one channel it builds exactly that program
    through {!of_plan}.

    A program is indexed once, when it is built, straight from its
    plan: one pass over the plan's occurrences
    ({!Pindisk_pinwheel.Plan.iter_occurrences}) fills the slot array and
    counts each file's slots, with one file lookup per run of a key; a
    walk up the period then records each file's slot offsets and each
    slot's occurrence ordinal within its file. That is O(period) words,
    and {!block_at} is O(1) for any slot. *)

module Schedule = Pindisk_pinwheel.Schedule

type t

val of_plan : Pindisk_pinwheel.Plan.t -> capacities:(int * int) list -> t
(** [of_plan plan ~capacities] is the program airing [plan], equal to
    [make ~schedule:(Plan.to_schedule plan) ~capacities] without
    materialising the schedule first. Raises what that would raise, in
    the same order: [Plan.to_schedule]'s error on a slot claimed twice,
    then [make]'s. *)

val make : schedule:Schedule.t -> capacities:(int * int) list -> t
(** [make ~schedule ~capacities] pairs a slot-to-file schedule with each
    file's on-air block count [N_i >= 1]: {!of_plan} of the explicit
    plan, keeping [schedule] itself. Every file appearing in the
    schedule must have a capacity; a file listed twice keeps its last
    one. Raises [Invalid_argument] on a capacity below 1, a negative
    file id, or (at the lowest such slot) a file without a capacity. *)

val schedule : t -> Schedule.t
val period : t -> int
(** The broadcast period [τ]. *)

val files : t -> int list
val capacity : t -> int -> int
(** Raises [Not_found] for a file not in the program. *)

val block_at : t -> int -> (int * int) option
(** [block_at p slot] is [Some (file, block_index)] for a busy slot — the
    self-identifying pair broadcast there — or [None] for an idle slot.
    Valid for every [slot >= 0]; contents repeat with {!data_cycle}. *)

val data_cycle : t -> int
(** The program data cycle: the least multiple [L] of the period such that
    [block_at] is [L]-periodic. Figure 6's program has period 8 and data
    cycle 16. Raises {!Pindisk_util.Intmath.Overflow} if it does not fit
    an [int]. *)

val data_cycles : t -> int -> int
(** [data_cycles p k] is [k] data cycles in slots: the default
    [max_slots] window of the simulators that listen for a fixed number
    of cycles. Raises [Invalid_argument] naming [max_slots] when it does
    not fit an [int], rather than wrapping to a wrong window. *)

val delta : t -> int -> int option
(** [delta p i] is [Δ_i], the maximum spacing between consecutive
    transmissions of file [i] (Lemma 2's recovery bound is [r·Δ]); [None]
    if the file never appears. *)

val occurrences_per_period : t -> int -> int

val offsets : t -> int -> int array
(** [offsets p i] are the slots of one period that carry file [i],
    ascending ([[||]] if it never appears); their count is
    {!occurrences_per_period}. The array is the program's own: do not
    mutate it. *)

val pp : Format.formatter -> t -> unit

(** {1 Builders} *)

val of_layout : (int * int) list -> capacities:(int * int) list -> t
(** [of_layout slots ~capacities] builds a program from an explicit one-
    period layout given as [(file, block_index)] pairs — e.g. the paper's
    Figure 5/6 toy programs verbatim. The block indices must follow the
    cycling discipline ([k]-th occurrence of file [i] carries block
    [k mod N_i] for some fixed per-file phase); this is checked, because
    {!block_at} recomputes indices arithmetically. Use [(-1, 0)] for idle
    slots. *)

val flat : (int * int) list -> t
(** [flat files] is the non-IDA flat program of Figure 5 for [(id, m)]
    pairs: a broadcast period of [Σ m_i] slots, each file granted [m_i]
    slots spread evenly (earliest-deadline interleaving), capacities
    [N_i = m_i] (every period repeats the same [m_i] physical blocks). *)

val aida_flat : (int * int * int) list -> t
(** [aida_flat files] is the AIDA-based flat program of Figure 6 for
    [(id, m, n)] triples: the same [Σ m_i]-slot layout as {!flat} but with
    capacities [N_i = n >= m], so consecutive periods transmit different
    dispersed blocks. *)
