(** Multi-channel broadcast sharding: one design, K parallel programs.

    {!Pindisk_pinwheel.Channels} partitions raw pinwheel tasks; this
    module is the file-level layer above it. Given broadcast files and K
    channels of equal [bandwidth], it assigns every file's dispersed
    pieces to channels, plans each channel with the single-channel
    pipeline, and emits K independent broadcast {!Program}s plus the
    placement map — the slot coordinate of the sharded server is
    [(channel, slot)], and {!block_at} resolves it to a {e global}
    dispersed-piece index.

    {b Piece striping.} A file's [N_i] dispersed pieces are dealt
    round-robin over [s = min stripe K (m_i + r_i)] {e distinct}
    channels (piece [k] to stripe member [k mod s]; [stripe = 1], the
    default, is the single-channel paper model), and so are the
    [m_i + r_i] pieces each window must air (AIDA, the paper's §2):
    member [j] holds [N_j] pieces, carries the pinwheel sub-task
    [(i, n_j, B·T_i)] for its share [n_j <= N_j] of [m_i + r_i], and its
    program cycles its [N_j] pieces. Every window thus airs
    [Σ n_j = m_i + r_i] distinct pieces, every data cycle airs all
    [N_i], and the file's guarantee follows from the per-channel ones as
    in the single-channel proof. Striping makes a whole-channel outage
    {e degrade} a file instead of destroying it: losing one channel
    removes at most [max_j n_j] of a window's pieces, so reconstruction
    survives whenever [Σ n_j - max_j n_j >= m_i] ({!outage_tolerant}) —
    the Goemans–Lynch–Saias motivation for placing IDA pieces across
    channels.

    {b Placement.} Files are packed in decreasing density
    [(m_i + r_i) / (B·T_i)] by {!Pindisk_pinwheel.Channels}, the
    library's one channel packer: each share, largest first, goes to the
    least-loaded channel whose load admits it
    ({!Pindisk_pinwheel.Channels.lightest}), the file's other stripe
    members excluded, and the channels are then planned by
    {!Pindisk_pinwheel.Channels.settle}. Files no channel set can take,
    and files a channel's scheduler subsequently rejects, are shed — a
    feasible design sheds nothing.

    {b K = 1, stripe = 1 is the single-channel pipeline} for every spec:
    when {!Pindisk_pinwheel.Scheduler.plan} plans
    [{(i, m_i + r_i, B·T_i)}], the design sheds nothing and its one
    program ({!program}) is that plan's with capacities [N_i], byte for
    byte; when it does not, the design sheds. The test suite pins this
    on specs with spare capacity. *)

module P = Pindisk_pinwheel

type placement = {
  file : int;
  channel : int;
  pieces : int array;
      (** ascending global piece indices this channel airs; the channel's
          local block index [i] cycles [pieces.(i)] *)
  per_window : int;
      (** [n_j <= Array.length pieces]: the pieces this channel airs in
          every window, its round-robin share of [m + r] *)
}

type channel = {
  index : int;
  tasks : P.Task.system;  (** per-channel sub-tasks, original file order *)
  density : Pindisk_util.Q.t;
  plan : P.Plan.t;
  program : Program.t;  (** capacities are the local share sizes [N_j] *)
}

type index
(** Per-file and per-channel lookups, built once by {!design} from the
    final placements. It holds the placement records themselves, so it
    shares their [pieces] arrays. *)

type t = private {
  channels : channel array;  (** length K, index [c] is channel [c] *)
  placements : placement list;  (** ascending by (file, channel) *)
  specs : File_spec.t list;  (** admitted files, original order *)
  shed : File_spec.t list;  (** files no channel could serve *)
  bandwidth : int;  (** per-channel, blocks/sec *)
  stripe : int;
  index : index;
}
(** Private: only {!design} builds one, so the index always matches the
    placements. *)

val design :
  ?stripe:int ->
  channels:int ->
  bandwidth:int ->
  File_spec.t list ->
  (t, string) result
(** Shard the files over [channels] channels of [bandwidth] blocks/sec
    each, striping each file over [min stripe channels] (further capped
    by [m + r]) channels. [Error] only on structurally bad input
    (no files, duplicate ids); an unschedulable file is shed, not an
    error. Raises [Invalid_argument] if [channels < 1], [stripe < 1] or
    [bandwidth < 1]. *)

(** The lookups below go through the index: their cost does not grow
    with the number of files in the design. *)

val block_at : t -> channel:int -> int -> (int * int) option
(** [(file, global piece index)] aired by a channel at a slot, [None]
    when idle. The global index is what a multi-tuner client collects:
    distinct across channels by the round-robin dealing. O(1): the
    channel program's {!Program.block_at} plus one lookup. *)

val spec : t -> int -> File_spec.t option
(** A file's spec, admitted or shed; [None] for an unknown id. O(1). *)

val program : t -> Program.t option
(** The design's program when it has one channel and sheds nothing —
    the single-channel broadcast disk — and [None] otherwise. Reads the
    design; never plans. *)

val channels_of : t -> int -> int list
(** Channels airing a file, by decreasing [per_window] (ties: lower
    channel first) — the order a client with fewer tuners than stripe
    members should prefer. O(1). *)

val outage_tolerant : t -> int -> bool
(** Whether every window still airs [>= m] of the file's pieces after
    the outage of any single channel: [Σ n_j - max_j n_j >= m].
    Single-channel placements are never outage tolerant. O(stripe). *)

val aggregate_density : t -> Pindisk_util.Q.t
(** Sum of per-channel densities — the served broadcast demand; scales
    toward [K ·] the single-channel budget as K grows. *)

val pp : Format.formatter -> t -> unit
(** One line per channel (density, files) plus shed files. *)
