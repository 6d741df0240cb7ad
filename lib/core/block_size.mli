(** Block-size selection (Section 5 of the paper — "The Effect of Block
    Size", posed as an open issue).

    Only the byte size of a file is physically fixed; its block count [m]
    depends on the chosen block size [b]: [m = ⌈bytes / b⌉]. A smaller [b]
    uses bandwidth more efficiently — the redundancy overhead per file is
    [r] {e blocks}, i.e. [r·b] bytes — but makes dispersal and
    reconstruction costlier ([O(m²)] per block). The paper reduces the
    system-wide choice to: {e find the largest [b] that satisfies the
    combined timeliness, fault-tolerance and bandwidth constraints} —
    which {!Designer.plan} scans for — and, in the generalized variant,
    the best per-file multiples [b_i = k_i·b], which this module chooses.

    The channel here is specified by its {e byte} rate; at block size [b]
    it carries [⌊byte_rate / b⌋] slots per second. *)

type file = private {
  id : int;
  bytes : int;  (** physical size *)
  latency : int;  (** seconds *)
  tolerance : int;  (** block losses to survive per retrieval *)
}

val file : ?tolerance:int -> id:int -> bytes:int -> latency:int -> unit -> file

val per_file_multipliers :
  byte_rate:int -> base:int -> file list ->
  ((int * int) list * Pindisk_pinwheel.Schedule.t) option
(** The paper's generalized choice [b_i = k_i·base]: starting from
    [k_i = 1], greedily double the multiplier of the file with the most
    source blocks (the highest coding cost) while the system stays
    schedulable. A multiplier is infeasible when the file's window cannot
    hold its slots or when its [m_i + r_i] dispersed blocks exceed IDA's
    255. Returns [(file_id, k_i)] assignments and the final plan
    materialized ({!Pindisk_pinwheel.Plan.to_schedule}); [None] when the
    all-ones start is infeasible or unschedulable. In the induced pinwheel
    system a file block of [k_i] base slots is modelled as [k_i] unit
    requirements per window; the schedule spreads them rather than keeping
    them contiguous, which preserves the bandwidth accounting (the
    quantity Section 5 reasons about) though not block contiguity. *)
