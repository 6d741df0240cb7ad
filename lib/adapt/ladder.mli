(** The degradation ladder: turn a redundancy demand into a broadcast
    program that fits the channel, degrading gracefully when it cannot.

    When the {!Policy} asks for [boost] extra blocks of redundancy per
    real-time item, the bandwidth-allocation step of AIDA is re-run and
    the raised redundancies may no longer be schedulable at the fixed
    channel bandwidth. The ladder then walks down, in the order the paper's
    machinery suggests:

    + {b Boost}: raise [r_i] for every real-time item of the base mode;
    + {b Mode switch}: fall back to a more austere {!Pindisk_rtdb.Mode}
      (still boosted), dialling down items that are not critical now;
    + {b Shed}: value-cognizant admission control
      ({!Pindisk_rtdb.Admission.admit}) drops the lowest value-density
      items until the remainder is schedulable.

    Recovery is the same computation at a lower boost: because planning is
    deterministic and every plan disperses items to the same fixed
    capacity (provisioned for the worst rung up front, so no re-dispersal
    is ever needed and block indices stay valid across program swaps),
    re-planning at boost 0 reproduces the original program bit-for-bit. *)

module Item = Pindisk_rtdb.Item
module Mode = Pindisk_rtdb.Mode

type rung =
  | Baseline  (** base mode, no boost *)
  | Boost of int  (** base mode with raised redundancy *)
  | Mode_switch of string  (** named fallback mode (boosted) *)
  | Shed of Item.t list  (** items dropped by admission control *)
  | Migrate of { file : int; from_channel : int; to_channel : int }
      (** multi-channel deployments only: move one file's share off a
          failing channel (see {!evacuate}) *)

val pp_rung : Format.formatter -> rung -> unit

val evacuate : Pindisk.Shard.t -> channel:int -> rung list * int list
(** The channel-migration rung for a sharded deployment: when a channel
    fails (or is about to be drained), propose one {!Migrate} per share
    it carries, each targeting the currently least-loaded {e other}
    channel that (a) does not already carry a share of the same file and
    (b) stays plausibly feasible after absorbing the share's density
    ({!Pindisk_pinwheel.Density.classify} not [Infeasible]). Targets are
    chosen share-by-share in decreasing share density, each commitment
    updating the load picture — so a burst of migrations is
    self-consistent. The second component lists stranded files: shares no
    surviving channel can absorb, which the caller sheds (the next rung
    down, exactly as in the single-channel ladder). Raises
    [Invalid_argument] on an unknown channel. *)

type plan = {
  rung : rung;
  boost : int;  (** the boost actually applied (clamped to [max_boost]) *)
  mode : Mode.t;  (** the effective (boosted) mode *)
  admitted : Item.t list;
  shed : Item.t list;
  specs : Pindisk.File_spec.t list;  (** for the admitted items *)
  program : Pindisk.Program.t;
}

type t

val create :
  ?fallbacks:Mode.t list -> ?max_boost:int -> bandwidth:int ->
  base_mode:Mode.t -> Item.t list -> t
(** [create ~bandwidth ~base_mode items]: fix the channel bandwidth, the
    base mode, optional fallback modes (tried in order on the mode-switch
    rung) and the item population. Every item's dispersal capacity is
    provisioned once, for the largest tolerance any mode plus [max_boost]
    (default 4) can ask. Raises [Invalid_argument] when the baseline
    itself is not schedulable at [bandwidth], when [items] is empty, or
    when a provisioned capacity would exceed the IDA limit of 255. *)

val capacity_for : t -> Item.t -> int
(** The fixed dispersal capacity provisioned for the item. *)

val plan : t -> boost:int -> plan
(** The first rung of the ladder that is schedulable at the fixed
    bandwidth with [boost] (clamped to [max_boost]) extra redundancy.
    [boost = 0] always returns the {!Baseline} plan. *)
