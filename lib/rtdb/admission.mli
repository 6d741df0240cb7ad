(** Value-cognizant admission control for broadcast disks.

    When the channel bandwidth cannot carry every item at its required
    latency and redundancy, the server must choose. Following the
    value-cognizant admission control the paper cites (Bestavros & Nagy,
    RTSS'96), items are admitted in order of {e value density} — value per
    unit of bandwidth demand — and an item is admitted only if the already-
    admitted set plus the candidate remains schedulable at the given
    bandwidth (checked with the real scheduler, not just the density
    bound). *)

type verdict = {
  admitted : Item.t list;  (** in admission order *)
  rejected : Item.t list;
  program : Pindisk.Program.t option;
      (** the broadcast program for the admitted set, when non-empty *)
}

val demand : mode:Mode.t -> Item.t -> Pindisk_util.Q.t
(** [(m + r) / avi]: the item's bandwidth demand under the mode. *)

val value_density : mode:Mode.t -> Item.t -> float
(** [value / demand]. *)

val admit : bandwidth:int -> mode:Mode.t -> Item.t list -> verdict
(** Greedy admission at fixed [bandwidth]: candidates sorted by decreasing
    value density (value as a tie-break), each admitted iff the grown set
    is still schedulable. Raises [Invalid_argument] when [bandwidth < 1]
    or item ids collide. *)
