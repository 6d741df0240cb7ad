(** Two-chain scheduling in the spirit of Chan & Chin's double-integer
    reduction.

    A single geometric chain loses up to a factor of two per window. When a
    system's windows cluster around two incompatible scales, splitting the
    slot timeline between two chains does better: a fraction [c/d] of the
    slots (spread evenly, Beatty-style) is dedicated to group A and the rest
    to group B, each group is specialized to its own best base on its {e
    virtual} (dedicated-slots-only) timeline, and the two packed schedules
    are interleaved back.

    Correctness does not rest on the analysis: window shrinkage is computed
    {e exactly} (the minimum number of dedicated slots over all real windows
    of the required length), and the final merged schedule is re-checked by
    {!Verify} before being returned. The construction differs from Chan &
    Chin's published one; the density-sweep experiment (E6) measures the
    density threshold it actually achieves. *)

type split = { c : int; d : int }
(** Dedicate to group A the slots [t] with
    [floor((t+1)c/d) > floor(t·c/d)] — [c] of every [d] slots, evenly. *)

val virtual_window : split -> int -> int
(** [virtual_window s b] is the minimum number of A-dedicated slots in any
    window of [b] consecutive real slots — the window available to an
    A-task on its virtual timeline. May be [0] (the task cannot be placed
    at this rate). *)

val plan : Task.system -> Plan.t option
(** [plan sys] searches thresholds partitioning the (unit-decomposed)
    tasks by window size and a small grid of splits, returning the first
    merged dispatch plan (a {!Plan.merge} of two progression plans) that
    verifies against [sys] — by its occurrences in closed form, without
    materializing the merged hyperperiod. The merged plan's period is at
    most [4_000_000]. Returns [None] when the search fails — callers
    should fall back to {!Specialize.sx_plan} first, which this module does not
    subsume on single-scale systems. *)
