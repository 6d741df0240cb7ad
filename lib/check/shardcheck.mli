(** Independent certification of a multi-channel shard design.

    {!Pindisk.Shard.design} promises the AIDA cycle on every file; this
    checker re-establishes it by direct counting on the materialized
    design, without trusting the optimizer:

    - {b per-channel witnesses}: every channel's broadcast schedule is
      re-verified against the sub-task system read off the placement map
      with {!Pindisk_pinwheel.Verify} — each sub-task [(i, n_j, B·T_i)]
      gets its [n_j] occurrences in every window of [B·T_i] slots — and
      the channel program's capacity for each file is its share size
      [N_j], the count {!Pindisk.Shard.block_at} indexes the share with;
    - {b every window airs [m + r]}: a file's [n_j] sum to [m_i + r_i],
      each within its share ([n_j <= N_j]), so the stripe set airs
      [m_i + r_i] distinct pieces in every window;
    - {b cover}: for every admitted file, the union of its per-channel
      piece shares is exactly [{0, …, N_i - 1}] — every data cycle airs
      every dispersed piece;
    - {b disjointness}: no piece is assigned to two channels and no file
      is placed twice on one channel — cross-channel receptions always
      make progress;
    - {b density}: every channel's exact rational density is [<= 1]
      (channels above one are provably infeasible and the witness check
      would already have failed — the density row is the independent
      arithmetic cross-check).

    The report mirrors the {!Audit} shape: structured rows, a
    [problems]/[ok] verdict for CI to gate on, and a JSON rendering. *)

module Q = Pindisk_util.Q

type channel_report = {
  channel : int;
  files : int;  (** sub-tasks on this channel *)
  period : int;
  density : Q.t;
  witnessed : bool;  (** schedule satisfies the sub-task system *)
}

type file_report = {
  file : int;
  name : string;
  capacity : int;
  channels : int list;  (** serving channels, ascending *)
  aired : bool;  (** the [n_j] sum to [m + r], each [<= N_j] *)
  cycled : bool;  (** each serving program's capacity is its share size *)
  covered : bool;  (** shares union to [{0..capacity-1}] *)
  disjoint : bool;  (** no piece on two channels *)
  outage_tolerant : bool;
}

type t = {
  channels : channel_report list;  (** ascending by channel *)
  files : file_report list;  (** admitted files, ascending by id *)
  shed : int list;  (** shed file ids, ascending *)
  stripe : int;
}

val run : Pindisk.Shard.t -> t
(** Certify a design. Pure counting — never raises on a well-typed
    design. *)

val problems : t -> string list
(** Violations: an unwitnessed channel, a channel above density one, a
    file served by no channel, whose windows do not air [m + r] pieces,
    whose program capacity is not its share size, or whose shares are
    uncovered or overlapping. *)

val ok : t -> bool
