(** Million-client population simulation by weighted equivalence classes.

    The broadcast channel is shared, so clients never contend: a
    client's outcome depends only on what the channel shows it and on
    its own fault process. The channel repeats every plan period and
    block indices cycle each file's capacity, so all requests with the
    same [(file, issued mod period, needed, deadline)] key see their
    file at the same slot distances and — up to a constant residue
    shift, which is a bijection and so preserves distinct-block counts —
    the same block-index pattern. Populations therefore collapse into
    weighted classes: one dispatcher-shaped sweep per class instead of
    one per client (the argument is spelled out in DESIGN §5i).

    This is the production single-channel engine; {!Engine.run}, which
    walks {!Client.retrieve} once per request, is kept as the oracle it
    is tested against. Two entry points share the class machinery:

    - {!run} replays a concrete trace through the class sweep and is
      {e exactly} equal to {!Engine.run} on the program the plan
      materializes to — same fault seeds (trace index), same
      [Engine.result] to the last float. The test suite pins this.
    - {!run_population} takes a closed-form population (a class list).
      Memoryless fault models ([No_loss] / [Bernoulli]) fold
      analytically — the completion-ordinal law is exact (a
      Poisson-binomial DP), and the integer class weight is apportioned
      over it by largest remainder, so each completion bucket holds
      weight × mass rounded to within one client; losses follow from
      Wald's identity. The cost is O(1) in the class weight, which is
      what makes 10M clients a few milliseconds. Time-correlated models
      ([Burst]) fall back to per-member seeded sampling (content-derived
      seeds: invariant under class-list permutation).

    Classes shard across {!Pindisk_util.Pool} domains; workers touch
    only per-class slots and sharded [cohort.*] counters, and the final
    fold runs on the caller in canonical class order, so pooled and
    sequential runs produce identical results and merged counters.

    Observability (when {!Pindisk_obs.Control.enabled}): the retirement
    namespace [cohort.requests] / [cohort.completed] / [cohort.missed] /
    [cohort.losses] / [cohort.wait] (+ per-file mirrors), plus
    [cohort.classes], [cohort.members], [cohort.swept] (member-slots
    actually walked) and [cohort.analytic] (classes folded in closed
    form). *)

type key = {
  file : int;
  phase : int;  (** issue slot mod plan period *)
  needed : int;
  deadline : int;
}

type prep
(** The per-plan warm-up: one period of dispatch recording each file's
    slot offsets within the period. Built in O(period·log n); reusable
    across any number of {!run} / {!run_population} calls over the
    {e same} plan, so repeated runs don't pay the warm-up again. *)

val prepare : Pindisk_pinwheel.Plan.t -> prep

type cls = { key : key; weight : int }

val classes_of_trace : period:int -> Workload.request list -> cls list
(** Partition a trace into weighted classes, in canonical (sorted-key)
    order — any permutation of the trace yields the same list. Raises
    [Invalid_argument] on [period < 1] or a negative issue slot. *)

(** Closed-form fault models for {!run_population}. Mirrors the
    {!Fault} constructors minus the seed (the engine derives per-member
    seeds from class content). *)
type model =
  | No_loss
  | Bernoulli of { p : float }
  | Burst of {
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_good : float;
      loss_bad : float;
    }

val fault_of_model : model -> seed:int -> Fault.t
(** The {!Fault} process a given model describes — what {!run} should be
    handed when cross-checking a sampled population run. *)

val run :
  ?pool:Pindisk_util.Pool.t ->
  ?prep:prep ->
  ?max_slots:int ->
  plan:Pindisk_pinwheel.Plan.t ->
  capacities:(int * int) list ->
  fault:(seed:int -> Fault.t) ->
  seed:int ->
  Workload.request list ->
  Engine.result
(** [run ~plan ~capacities ~fault ~seed trace] retires every request of
    the trace; request [k] gets [fault ~seed:(Intmath.mix64 (seed + k))],
    reset at its issue slot and advanced once per slot, exactly as
    {!Engine.run} does — and the result equals {!Engine.run}'s, including
    float accumulation order. Members of a class share the occurrence
    pattern and the warm-up instead of re-walking the dispatcher per
    request. [max_slots] is each request's retrieval window (default
    [100 ·] the plan's data cycle). [prep] (from {!prepare} on this
    [plan]) skips the warm-up. [pool] shards classes across domains
    (default: inline sequential); [fault] must be pure construction, as
    it is called from worker domains. Raises [Invalid_argument] on a
    prep built from a different plan, a capacity below 1, a request
    naming a file without a capacity or never broadcast, [needed < 1]
    or beyond the file's capacity, or a negative issue slot. *)

val run_population :
  ?pool:Pindisk_util.Pool.t ->
  ?prep:prep ->
  ?max_slots:int ->
  ?sampled:bool ->
  plan:Pindisk_pinwheel.Plan.t ->
  capacities:(int * int) list ->
  model:model ->
  seed:int ->
  cls list ->
  Engine.result
(** Simulate a closed-form population. The class list is canonicalized
    (sorted, duplicate keys merged, zero weights dropped), so the result
    is invariant under permutation or splitting of the input.
    [No_loss]/[Bernoulli] classes fold analytically unless
    [~sampled:true] forces per-member sampling; [Burst] always samples.
    The analytic completion law is exact to double precision: it is
    truncated only once its residual mass is below [1e-15] (the leftover
    rides the expiry bucket). The integer apportionment of the class
    weight over that law is not: each bucket holds weight × mass
    rounded up or down, so within one client of it. [seed] feeds the
    sampled path's content-derived member seeds; the analytic path
    ignores it. [max_slots] defaults to [100 ·] the plan's data cycle.
    Raises [Invalid_argument] for a class with [phase] outside
    [[0, period)], [needed < 1] or beyond the file's capacity, a file
    never broadcast, a negative weight, or capacities/prep errors as in
    {!run}. *)
