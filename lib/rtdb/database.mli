(** The broadcast-disk face of a real-time database.

    Couples a set of temporally-constrained {!Item}s with the {!Mode}s the
    system can operate in. Dispersal capacity is provisioned once, for the
    worst mode ({!Mode.max_tolerance}), so switching modes only changes the
    broadcast program — never the dispersed data. *)

type t

val create : items:Item.t list -> modes:Mode.t list -> t
(** Raises [Invalid_argument] on duplicate item ids/names, duplicate mode
    names, an empty item list or an empty mode list. *)

val mode : t -> string -> Mode.t option

val provisioned_capacity : t -> Item.t -> int
(** [blocks + max_tolerance]: the number of dispersed blocks kept on the
    server for the item. *)

val file_specs : t -> mode:Mode.t -> Pindisk.File_spec.t list
(** The broadcast files for one mode, at the provisioned capacity. *)

val required_bandwidth : t -> mode:Mode.t -> int
(** Equation 2's sufficient bandwidth for the mode. *)

val program : t -> mode:Mode.t -> (int * Pindisk.Program.t) option
(** The broadcast program for a mode, at the smallest bandwidth the
    scheduler finds. Returns the bandwidth used alongside the program. *)
