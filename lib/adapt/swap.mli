(** Atomic broadcast-program hot-swap at cycle boundaries.

    A broadcast server cannot change its program mid-cycle: a client that
    tuned in expecting the remaining occurrences of its file would be
    handed a torn schedule. This module holds the {e live} program plus at
    most one {e staged} replacement, and installs the replacement only
    when the live program completes a cycle, so clients observe a clean
    seam: a whole number of cycles of the old program followed by the new
    program starting its own cycle at phase 0.

    The boundary is the live program's {e broadcast period}, the atomic
    unit of the schedule layer — every file's occurrences for the period
    have been transmitted. Block-cycling alignment (the {e data cycle}, a possibly enormous multiple of the
    period) is deliberately not required: the adaptive machinery disperses
    every item once, to a fixed capacity, so any distinct block indices
    reconstruct regardless of which program aired them, and a retrieval
    straddling a seam keeps its collected blocks.

    Every installed swap is appended to a log recording the slot, the
    phase within the old program's cycle (always 0 — the recorded proof of
    the invariant), a human-readable cause, and digests of both programs.
    Staging is idempotent: staging the live program clears any pending
    swap, and re-staging replaces the previous staging, so a controller
    that changes its mind before the boundary costs nothing. *)

type entry = {
  slot : int;  (** the slot the swap took effect *)
  phase : int;  (** [(slot - old origin) mod old cycle]; 0 by invariant *)
  cause : string;
  old_digest : string;
  new_digest : string;
}

val pp_entry : Format.formatter -> entry -> unit

val digest : Pindisk.Program.t -> string
(** A short content digest of a program (layout + capacities), via its
    {!Pindisk.Codec} serialization. *)

type t

val create : Pindisk.Program.t -> t
(** A holder serving [program] from slot 0 onward, swapping only at
    broadcast-period boundaries. *)

val block_at : t -> int -> (int * int) option
(** The block on air at an absolute slot [>= origin]: the live program
    phase-shifted to its installation slot. *)

val stage : ?slot:int -> t -> cause:string -> Pindisk.Program.t -> unit
(** Stage a replacement, overwriting any previous staging. Staging a
    program equal (by {!digest}) to the live one cancels the pending swap
    instead. [slot], when given, records the slot the decision was made;
    the observability layer reports the decision-to-installation wait as
    the [adapt.swap.wait] histogram (re-staging before the boundary keeps
    the original decision slot). *)

val tick : t -> int -> entry option
(** Call once at the start of every slot, in slot order. If a staged
    program exists and [slot] is a cycle boundary of the live program,
    the swap happens now — the returned entry describes it and [slot] is
    the first slot served by the new program. *)

val log : t -> entry list
(** All swaps, in chronological order. *)
