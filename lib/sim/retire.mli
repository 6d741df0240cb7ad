(** The shared retirement fold behind every simulation engine.

    {!Engine.run} (the per-client oracle), {!Cohort.run} /
    {!Cohort.run_population} (weighted classes) and {!Multi.run} all end
    the same way: a sequence of per-request outcomes is folded into
    global and per-file statistics plus [lib/obs] counters and wait
    histograms. This module owns that fold — and the result types the
    engines share — so the paths cannot drift apart.

    A {!row} is one outcome with a [weight]: how many statistically
    identical clients it stands for. Weight-1 rows folded in trace order
    reproduce the original [Engine.run] aggregation exactly, including
    the float accumulation order of the latency accumulators; the cohort
    engine feeds class-sized weights through {!Pindisk_util.Stats}
    run-length storage and {!Pindisk_obs.Histogram.observe_n} so a
    million-client class costs O(1), not O(weight). *)

type file_stats = {
  file : int;
  requests : int;
  missed : int;  (** late or never completed *)
  latency : Pindisk_util.Stats.t;  (** completed retrievals only *)
}

type result = {
  requests : int;
  completed : int;
  missed : int;
  latency : Pindisk_util.Stats.t;
  losses : int;
  per_file : file_stats list;  (** ascending by file id *)
}

type sinks
(** Obs handles for one engine namespace ([engine.*] / [drive.*] /
    [cohort.*]): requests/completed/missed/losses counters, the global
    wait histogram and the per-file [<prefix>.wait.N] / [<prefix>.miss.N]
    mirrors. *)

val sinks : prefix:string -> sinks
(** Find-or-create the interned handles under [prefix]. Cheap enough per
    run; callers that retire often should hoist one to module level. *)

type row = {
  file : int;
  deadline : int;
  elapsed : int option;  (** [None] = expired / never completed *)
  weight : int;  (** identical clients this row stands for; [0] skips *)
  losses : int;  (** total own-file losses across the [weight] clients *)
}

val merge : result -> result -> result
(** Combine two results as if their rows had been retired in sequence
    (first [a]'s, then [b]'s): counts add, latency accumulators absorb in
    that order, per-file lists merge-join by id. Used by the multi-channel
    engine to fold K per-channel results into one. Pure — no obs
    recording (each half already recorded when it retired). *)

val retire : sinks:sinks -> row list -> result
(** Fold rows in order into a {!result}, recording into [sinks] when
    {!Pindisk_obs.Control.enabled}. [elapsed > deadline] counts the row
    as both completed and missed, exactly like the per-client engines.
    Raises [Invalid_argument] on a negative weight. *)
