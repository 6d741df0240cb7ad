(** Scripted chaos scenarios: crash the server on purpose and prove the
    recovery machinery keeps its promises.

    A scenario runs one broadcast server over a fixed program on a
    {b wall clock} of [horizon] slots. The server itself advances a
    {b logical} slot clock: while it is up, each wall slot airs one
    logical slot; while it is down after a {!Crash}, wall slots pass
    with dead air, and on restart the server resumes from its last
    checkpoint — re-airing the logical slots since then. Event
    coordinates follow the side they act on: crashes and loss bursts
    are wall-clock (they happen to the broadcast), stuck-reader windows
    are logical-clock (they are a property of the storage latency
    process, and must replay identically after a restart).

    Every run is checked against four invariants:

    - {b I1 bytes-identity} — every scripted retrieval reconstructs
      content byte-identical to the stored ground truth;
    - {b I2 replay determinism} — every airing of logical slot [s],
      including post-recovery re-airs, equals what an uninterrupted
      server airs at [s];
    - {b I3 bounded recovery gaps} — for each file, the wall-clock gap
      between consecutive slots serving it is at most
      [delta + downtime-in-gap + checkpoint_every + lookahead] (the
      last two terms bound the post-recovery rewind);
    - {b I4 liveness} — every scripted retrieval completes within the
      horizon.

    Runs emit [Crash]/[Recover] trace spans, a [store.recovery]
    histogram (wall slots from crash until the server is caught up),
    and — in stuck-reader scenarios — drive an {!Pindisk_adapt.Controller}
    through {!Pindisk_adapt.Controller.notify_stall} so a server stall
    climbs the degradation ladder like channel loss does. *)

type event =
  | Crash of { at : int; restart_after : int }
      (** die at wall slot [at]; dead air for [restart_after] wall
          slots; then restore from the latest checkpoint *)
  | Stuck_reader of { at : int; length : int }
      (** reads issued in logical slots [at, at+length) complete only
          after the window ends *)
  | Loss_burst of { at : int; length : int }
      (** the channel loses wall slots [at, at+length) outright *)

type retrieval = { file : int; tune_in : int  (** wall slot *) }

type spec = {
  name : string;
  seed : int;
  horizon : int;  (** wall slots simulated *)
  checkpoint_every : int;  (** logical slots between checkpoints *)
  lookahead : int;  (** server prefetch lead, in slots *)
  depth : int;  (** block-store queue depth *)
  fail_p : float;  (** per-read media-failure probability *)
  slow_p : float;  (** per-read slow-path probability *)
  loss_p : float;  (** per-wall-slot channel loss probability *)
  events : event list;
  retrievals : retrieval list;
  expect_escalation : bool;
      (** require the adapt controller to leave its baseline rung *)
}

type report = {
  spec : spec;
  aired : int;  (** wall slots that aired a logical slot *)
  down : int;  (** wall slots of dead air *)
  faulted : int;  (** busy slots lost to the block store *)
  replayed : int;  (** wall slots re-airing already-aired logical slots *)
  crashes : int;
  recovery_slots : int list;
      (** per crash: wall slots from death until caught up *)
  retrieved : (retrieval * (int, string) result) list;
      (** per retrieval: completion wall slot, or why it failed *)
  escalated : bool;  (** the controller left its baseline rung *)
  violations : string list;  (** empty iff every invariant held *)
}

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

val run : spec -> report
(** Execute the scenario (deterministic: same spec, same report). *)

val suite : unit -> spec list
(** The fixed-seed scenario suite the [chaos] CI job runs: calm
    baseline, single crashes early and late, a double crash, a stuck
    reader (with escalation), overflow pressure, and a burst-plus-crash
    compound. *)
