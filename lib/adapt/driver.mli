(** Slot-stepped closed-loop simulation: a time-varying channel against a
    static or an adaptive broadcast server.

    {!Pindisk_sim.Engine} measures one fixed program with a fresh fault
    process per request; that cannot exercise a server that {e reacts},
    because reaction needs a single shared channel all clients (and the
    server's estimator) observe. This driver steps the world one slot at
    a time: the scripted channel produces one loss verdict per slot, every
    in-flight retrieval sees the block (or loses it) together, and — when
    a {!Controller} is plugged in — the same reception outcome is the
    feedback the estimator consumes. Running the same precomputed loss
    sequence and the same request trace with and without a controller is
    therefore an apples-to-apples measurement of adaptation.

    Because every ladder rung disperses items to the same fixed capacity,
    a retrieval that straddles a program swap keeps its collected block
    indices: any [needed] distinct indices reconstruct, whichever programs
    broadcast them. *)

type phase = { length : int; fault : Pindisk_sim.Fault.t }
(** One segment of the channel script. *)

val losses : phase list -> bool array
(** The per-slot loss verdicts of a channel script: each phase's fault
    process is {!Pindisk_sim.Fault.reset_to} the phase's absolute start
    slot and advanced through the phase, so the sequence is deterministic
    and independent of who consumes it. *)

type bucket = {
  t0 : int;  (** bucket start slot, inclusive *)
  t1 : int;  (** bucket end slot, exclusive *)
  issued : int;  (** requests issued in the bucket *)
  missed : int;  (** of those, missed (late, starved or unfinished) *)
}

type report = {
  requests : int;
  completed : int;  (** retrievals completed within their deadline *)
  missed : int;
  timeline : bucket list;  (** outcomes grouped by issue slot *)
  swaps : Swap.entry list;  (** empty for a static run *)
}

val miss_ratio : report -> float

val window_miss_ratio : report -> t0:int -> t1:int -> float
(** Miss ratio over requests issued in [\[t0, t1)], from the timeline
    buckets that lie inside the window. *)

val run :
  ?bucket:int -> ?controller:Controller.t -> program:Pindisk.Program.t ->
  losses:bool array -> Pindisk_sim.Workload.request list -> report
(** [run ~program ~losses trace] replays the trace slot by slot against
    the per-slot loss verdicts. Without a controller, [program] serves
    every slot (the static server); with one, the controller's live
    program serves each slot and receives the per-slot feedback
    ([program] is then ignored — the controller starts at its baseline).
    A request misses when its deadline passes before [needed] distinct
    blocks arrived (including requests for items a degraded program shed).
    [bucket] (default 500 slots) sets the timeline granularity. *)

