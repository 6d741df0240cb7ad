(** Multi-tuner clients over a sharded K-channel broadcast.

    {!Pindisk.Shard.design} turns one file population into K independent
    broadcast programs; this engine is the client side. A client owns
    [tuners] tuners and, per request, listens to the first
    [min tuners stripe-members] channels carrying its file (in
    {!Pindisk.Shard.channels_of} preference order — most pieces a
    window first). Channels are physically independent, so each listened
    channel gets its {e own} fault process: per-request, per-channel
    seeds derived with {!Pindisk_util.Intmath.mix64}, each a function of
    the slot exactly like the single-channel engines' (the
    {!Cohort.sweep} takes verdicts only at own-file slots). A request
    completes when the tuner set has collected [needed] {e distinct
    global} piece indices across its channels — the round-robin dealing
    makes per-channel pieces disjoint, so every clean own-file reception
    on any tuned channel makes progress.

    With [channels = 1] the design is the single-channel program and
    [tuners] is irrelevant; the slot-by-slot collection then matches
    {!Client.retrieve} semantics (block cycling, window, firm deadline
    accounting).

    Retirement goes through the shared {!Retire} fold under the
    [multi.*] namespace; the design-level counters live under
    [channel.*]: [channel.channels] / [channel.tuners] gauges,
    [channel.assigned] / [channel.unserved] counters (request weight
    that found, respectively failed to find, a serving channel) and
    per-channel [channel.<c>.requests]. *)

type member = {
  issued : int;
  file : int;
  needed : int;  (** distinct global pieces to collect *)
  deadline : int;  (** slots allowed, relative to [issued] *)
  weight : int;  (** statistically identical clients *)
}

val run :
  ?max_slots:int ->
  design:Pindisk.Shard.t ->
  tuners:int ->
  fault:(channel:int -> seed:int -> Fault.t) ->
  seed:int ->
  Workload.request list ->
  Engine.result
(** Exact per-request simulation: one {!Cohort.sweep} per request, with
    one lane per listened channel read off that channel's program.
    Request [k] listening to channel [c] gets
    [fault ~channel:c ~seed:(mix64 (mix64 (seed + k) + c))], reset to
    its issue slot. A request for a shed file (or one whose stripe
    set the tuner budget cannot cover [needed] distinct pieces of)
    retires as missed; an unknown file, [needed < 1] or beyond the
    file's capacity, a negative issue slot, or [tuners < 1] raise
    [Invalid_argument]. [max_slots] is the retrieval window per request
    (default [100 ·] the largest per-channel data cycle). *)

val run_population :
  ?pool:Pindisk_util.Pool.t ->
  ?max_slots:int ->
  ?sampled:bool ->
  design:Pindisk.Shard.t ->
  tuners:int ->
  model:(channel:int -> Cohort.model) ->
  seed:int ->
  member list ->
  Engine.result
(** Population-scale analogue: members collapse to per-channel weighted
    classes and each channel folds through {!Cohort.population_rows} on
    its own program (analytic for memoryless models). Every channel's
    rows then retire once, in channel order, under the [cohort.*] sinks
    — the result {!Cohort.run_population} per channel merged in channel
    order would give. Members no channel serves retire under [multi.*],
    merged in front when there are any.
    Each member is served by the {e best} listened channel — the
    largest-share channel among its first [min tuners stripe] preferred
    ones that alone carries [needed] pieces; members with no such
    channel retire as missed.
    For unstriped designs (stripe = 1, the default) this is exact: the
    file's one channel carries its full capacity. For striped designs it
    is a conservative lower bound — cross-channel piece pooling is
    credited only by {!run}. Validation and defaults as {!run}. *)
