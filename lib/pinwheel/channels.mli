(** Multi-channel sharding: spread pinwheel tasks across K parallel
    broadcast channels.

    The paper's model — and every scheduler in this library — assumes a
    single broadcast channel. The Kenyon–Schabanel–Young PTAS for Data
    Broadcast is about scheduling messages over {e multiple} channels,
    and that is the sharding story for serving heavy traffic: K channels
    of the same bandwidth carry (up to scheduling slack) K times the
    aggregate density. This module is the one channel packer of the
    library. Its two parts, {!lightest} and {!settle}, serve three
    callers: {!plan} on raw task systems (each task a stripe-1 share),
    [Shard.design] on files striped over channels, and the ladder's
    channel evacuation. Channels are physically independent, so a
    channel's plan is just a {!Plan.t} plus a channel coordinate.

    {b Placement.} Longest-processing-time (LPT) greedy on exact rational
    densities: tasks are placed in order of decreasing density, each onto
    the least-loaded channel whose {!Density.load} admits it
    ({!lightest}: a walk of the channels ordered by load, so a placement
    costs O(log K), not a scan of all K). LPT's classical bound applies
    verbatim to densities: the heaviest channel carries at most
    [avg + (1 - 1/K) · max_task], so e.g. a system of tasks with
    individual densities <= 1/3 and total density <= K/2 always shards
    with every channel <= 5/6, where a schedule exists by Kawamura's
    theorem. Round-robin offers no such bound (it can stack
    the K heaviest tasks onto one channel); the test suite pins the LPT
    bound as a qcheck property.

    {b Shedding.} A task that no channel admits — or whose channel the
    scheduler then fails to plan ({!settle}) — is {e shed}, mirroring the
    admission control of the degradation ladder. Feasible systems shard
    with [shed = []]; the multichannel bench uses shedding to measure how
    many files K channels actually serve.

    {b K = 1 is not a special case.} A single channel goes through the
    same placement and the same loop. When the scheduler plans the whole
    system, every prefix of it is admitted ({!Density.classify} is sound,
    so no subset of a schedulable system is [Infeasible]), the channel
    keeps the tasks in input order and {!plan} returns
    {!Scheduler.plan}'s plan of the original system. The test suite pins
    this. *)

type shard = {
  channel : int;  (** 0-based channel coordinate *)
  tasks : Task.system;  (** in original input order *)
  density : Pindisk_util.Q.t;
  plan : Plan.t;
}

type t = {
  channels : int;
  shards : shard list;  (** ascending by channel; every channel present *)
  shed : Task.system;  (** tasks no channel could take, original order *)
}

type loads
(** The K channels' {!Density.load}s, held in a set ordered by (load
    density, index). Mutable: {!add} updates one channel in O(log K). *)

val loads : int -> loads
(** [loads k] is [k] empty channels, [0 .. k-1]. *)

val add : loads -> int -> Task.t -> unit
(** [add l c t] adds [t] to channel [c]'s load. *)

val lightest : ?avoid:int list -> loads -> Task.t -> int option
(** [lightest ~avoid l t] is the channel of least load density whose load
    {!Density.admits} [t], ties to the lower index, among the channels not
    in [avoid] (default none); [None] if no channel admits it. It walks the
    ordered set to the first channel that qualifies: O(log K) to start,
    then one step per channel passed over. *)

val settle :
  ?algorithm:Scheduler.algorithm ->
  Task.system array ->
  (Task.system * Plan.t) array * int list
(** [settle channels] plans every channel's task list with
    {!Scheduler.plan}. When a channel fails to plan, its densest task
    (ties: the higher id) is shed from every channel that holds it, and
    only those channels are planned again; the channels are walked in
    index order, lowest unplanned first. Returns each channel's
    surviving tasks (in their given order) with a verified plan — an
    empty channel gets the all-idle plan ({!Plan.progressions} of
    nothing) — and the shed ids in shedding order. Since planning is
    deterministic, the result equals re-planning every channel after
    each shed. *)

val partition :
  channels:int -> Task.system -> (int * Task.t) list * Task.system
(** [partition ~channels sys] is the density-balanced LPT assignment:
    [(channel, task)] pairs in original task order, plus the shed tasks.
    Placement alone — no scheduler runs. A task is shed only when no
    channel's load admits it. Raises [Invalid_argument] if
    [channels < 1] or [sys] has duplicate ids. *)

val plan :
  ?algorithm:Scheduler.algorithm -> channels:int -> Task.system -> t
(** {!partition}, then {!settle} the channels' task lists — so every
    returned shard carries a verified plan, possibly at the cost of a
    non-empty [shed]. Raises like {!partition}. *)
