(** Modes of operation and the AIDA redundancy they imply.

    "The fault-tolerant timely access of a data object (e.g., 'location of
    nearby aircrafts') could be critical in a given mode of operation
    (e.g., 'combat'), but less critical in a different mode (e.g.,
    'landing')." A mode names a criticality for each item; switching modes
    re-runs the bandwidth-allocation step of AIDA, scaling redundancy up
    for the items that matter now and down for the rest. *)

module Aida = Pindisk_ida.Aida

type t = private {
  name : string;
  default : Aida.criticality;
  overrides : (string * Aida.criticality) list;  (** by item name *)
}

val make :
  ?default:Aida.criticality -> name:string ->
  (string * Aida.criticality) list -> t
(** [default] applies to items not mentioned; it defaults to
    [Non_real_time]. *)

val criticality : t -> Item.t -> Aida.criticality

val tolerance : t -> Item.t -> int
(** The per-retrieval loss count the mode asks this item to survive. *)

val to_file_spec : ?capacity:int -> t -> Item.t -> Pindisk.File_spec.t
(** The broadcast file realizing the item under this mode: size and latency
    from the item, fault tolerance from the mode, [capacity] (default
    [blocks + tolerance]) from the dispersal plan. *)

val file_specs :
  ?capacity_for:(Item.t -> int) -> t -> Item.t list -> Pindisk.File_spec.t list
(** All items at once. [capacity_for] fixes each item's dispersal level
    independently of the mode — pass the maximum tolerance over every mode
    the system can enter, so mode switches never require re-dispersal. *)

val max_tolerance : t list -> Item.t -> int
(** The largest tolerance any of the modes asks of the item: the dispersal
    level to provision. *)
