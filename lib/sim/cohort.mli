(** Million-client population simulation by weighted equivalence classes.

    The broadcast channel is shared, so clients never contend: a
    client's outcome depends only on what the channel shows it and on
    its own fault process. The channel repeats every broadcast period and
    block indices cycle each file's capacity, so all requests with the
    same [(file, issued mod period, needed, deadline)] key see their
    file at the same slot distances and — up to a constant residue
    shift, which is a bijection and so preserves distinct-block counts —
    the same block-index pattern. Populations therefore collapse into
    weighted classes whose members share one occurrence pattern (the
    argument is spelled out in DESIGN §5i).

    This is the production single-channel engine; {!Engine.run}, which
    walks {!Client.retrieve} once per request, is kept as the oracle it
    is tested against. Two entry points share the class machinery:

    - {!run} replays a concrete trace through the class sweep and is
      {e exactly} equal to {!Engine.run} on the same program — same
      fault seeds (trace index), same [Engine.result] to the last float.
      The test suite pins this.
    - {!run_population} takes a closed-form population (a class list).
      Memoryless fault models ([No_loss] / [Bernoulli]) fold
      analytically — the completion-ordinal law is exact (a
      Poisson-binomial DP), and the integer class weight is apportioned
      over it by largest remainder, so each completion bucket holds
      weight × mass rounded to within one client; losses follow from
      Wald's identity. The law depends only on the file's capacity,
      [needed] and the loss rate, so a run builds one DP per distinct
      (capacity, needed, loss rate) among its classes, before they fan
      out, and each class then costs O(buckets) — its share of the law
      — whatever its weight. Time-correlated models ([Burst]) fall back
      to per-member seeded sampling (content-derived seeds: invariant
      under class-list permutation).

    Both read the broadcast from the program's own one-period index
    ({!Pindisk.Program.offsets}); nothing is re-indexed per run. The
    member sweep ({!sweep}) is shared with {!Multi.run}, which passes
    one lane per tuned channel.

    {!population_rows}' classes shard across {!Pindisk_util.Pool}
    domains; workers touch only per-class slots and sharded [cohort.*]
    counters, and the final fold runs on the caller in canonical class
    order, so pooled and sequential runs produce identical results and
    merged counters.

    Observability (when {!Pindisk_obs.Control.enabled}): the retirement
    namespace [cohort.requests] / [cohort.completed] / [cohort.missed] /
    [cohort.losses] / [cohort.wait] (+ per-file mirrors), plus
    [cohort.classes], [cohort.members], [cohort.swept] (member-slots
    actually walked), [cohort.analytic] (classes folded in closed form)
    and [cohort.laws] (completion laws built for them). *)

type key = {
  file : int;
  phase : int;  (** issue slot mod the broadcast period *)
  needed : int;
  deadline : int;
}

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

type lane
(** One tuned channel of one member's retrieval: the file's slot offsets
    within the channel program's period, its block count there, the
    lane's fault process, the relative slot of the next own-file
    occurrence, and how many slots the fault has passed. A lane is used
    up by one {!sweep}. *)

val lane : Pindisk.Program.t -> file:int -> issued:int -> Fault.t -> lane
(** The lane of a program for a request for [file] issued at [issued];
    [fault] must already be reset to [issued]. The first occurrence is
    found by binary search in {!Pindisk.Program.offsets}. Raises
    [Not_found] if the program has no capacity for [file]. *)

val sweep : needed:int -> max_slots:int -> lane array -> int option * int * int
(** [sweep ~needed ~max_slots lanes] runs one member's retrieval on
    every lane at once, for at most [max_slots] slots, visiting only the
    slots where some lane airs the file. It repeatedly takes the
    earliest next occurrence [d] over the lanes: if [d >= max_slots] the
    member expires; otherwise every lane airing at [d] skips its fault
    ({!Fault.skip}) to slot [d] and takes that slot's verdict, and the
    piece is either lost or collected. A verdict is a function of its
    slot, so each is the one a once-per-slot {!Fault.advance} walk reads
    there, and the result equals that walk's. A lane collects distinct
    residues of its occurrence ordinal mod the file's block count on its
    channel, so lanes must air disjoint pieces. The member completes at
    [d + 1] once [needed] are collected; every lane airing in the
    completing slot still counts. Returns [(elapsed, losses, swept)]: the completion
    distance in slots ([None] if the window ran out), the own-file slots
    lost, and the slots covered ([elapsed], or [max_slots] on
    expiry). *)

val run :
  ?max_slots:int ->
  program:Pindisk.Program.t ->
  fault:(seed:int -> Fault.t) ->
  seed:int ->
  Workload.request list ->
  Engine.result
(** [run ~program ~fault ~seed trace] retires every request of the
    trace; request [k] gets [fault ~seed:(Intmath.mix64 (seed + k))],
    reset at its issue slot, exactly as {!Engine.run} does. Verdicts
    are taken only at own-file slots ({!sweep}), and each is a function
    of its slot ({!Fault}), so they are the ones {!Engine.run}'s
    per-slot walk reads there — and the result equals {!Engine.run}'s on
    the same program, including float accumulation order. Members of a
    class share the occurrence pattern instead of re-walking the
    program per request. [max_slots] is each request's retrieval window
    (default [100 ·] the program's data cycle). Raises
    [Invalid_argument] on a request naming a file the program has no
    capacity for or never broadcasts, [needed < 1] or beyond the file's
    capacity, or a negative issue slot. *)

val population_rows :
  ?pool:Pindisk_util.Pool.t ->
  ?max_slots:int ->
  ?sampled:bool ->
  program:Pindisk.Program.t ->
  model:model ->
  seed:int ->
  rest:Retire.row list ->
  cls list ->
  Retire.row list
(** The retirement rows of a closed-form population, in canonical class
    order, followed by [rest]; {!run_population} is {!retire} of these
    rows with [rest = []], no [pool] and the default [max_slots]. [pool]
    shards classes across domains (default: inline sequential);
    [max_slots] is each client's retrieval window (default [100 ·] the
    program's data cycle). Each class's rows ascend in elapsed, then
    hold its expired clients; the class's losses ride on its first row.
    Counts [cohort.classes], [cohort.members], [cohort.analytic],
    [cohort.laws] and [cohort.swept] like {!run_population}, but records
    no retirement. Validation as {!run_population}, and [max_slots < 1]
    raises [Invalid_argument] too. *)

val retire : Retire.row list -> Engine.result
(** {!Retire.retire} under the [cohort.*] sinks. *)

val run_population :
  ?sampled:bool ->
  program:Pindisk.Program.t ->
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
    ignores it. Each client listens for at most [100 ·] the program's
    data cycle. Raises [Invalid_argument] for a class with
    [phase] outside [[0, period)], a negative weight, or a file or
    [needed] {!run} rejects. *)
