(** The Adaptive Information Dispersal Algorithm (Bestavros 1994).

    AIDA inserts a {e bandwidth-allocation} step between IDA dispersal and
    transmission (Figure 4 of the paper): out of the [capacity] dispersed
    blocks available for a file with [m] source blocks, the server transmits
    only [n ∈ \[m, capacity\]] per data cycle. [n = m] means no redundancy;
    every extra block tolerates one more per-period block loss. The choice of
    [n] is driven by the current {e mode of operation} — the same file may be
    critical in one mode ("combat") and unimportant in another ("landing").

    This module captures that policy layer: allocation profiles map
    criticality levels to redundancy, and {!allocate} clamps the request to
    what the dispersal level supports. *)

type criticality =
  | Non_real_time  (** no redundancy: transmit exactly [m] blocks *)
  | Standard  (** tolerate [1] lost block per period *)
  | Important  (** tolerate [2] lost blocks per period *)
  | Critical of int  (** tolerate a caller-chosen number of lost blocks *)

val redundancy : criticality -> int
(** Number of per-period block losses the level asks to tolerate. *)

type profile = (string * criticality) list
(** A mode of operation: assigns each file (by name) a criticality. Files
    absent from the profile default to [Non_real_time]. *)

val criticality_in : profile -> string -> criticality

val allocate : m:int -> capacity:int -> criticality -> int
(** [allocate ~m ~capacity c] is the number [n] of blocks to transmit:
    [m + redundancy c], clamped to [capacity]. Raises [Invalid_argument]
    unless [1 <= m <= capacity <= 255]. *)

val transmit : Ida.t -> capacity:int -> criticality -> bytes -> Ida.piece array
(** [transmit ida ~capacity c file] is the AIDA pipeline of Figure 4:
    bandwidth-allocate [n] out of [capacity] blocks, then disperse exactly
    those [n] (dispersal rows do not depend on [n], so this equals the
    [n]-prefix of the [capacity]-wide dispersal without spending encode
    passes on blocks that are never transmitted). *)
