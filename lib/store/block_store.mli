(** The block backend: dispersed pieces served through an
    outstanding-request queue with injectable read faults.

    The simulator's {!Pindisk_sim.Transport} hands every piece over
    instantaneously; a real broadcast server reads blocks from storage,
    and storage is slow, finite and fallible (cf. betrfs's
    [AsyncSectorDiskModel]: a disk is a queue of outstanding async I/Os).
    This module is that queue. The server {!submit}s a read ahead of the
    slot that will air it; the read's service time comes from a
    {!Latency} process; at air time {!take} reports whether the piece
    made it. Three physically-grounded server-side faults emerge:

    - {b late read}: service time exceeded the prefetch lead — the slot
      airs nothing (the read still occupies the queue until it
      completes, wasted);
    - {b failed read}: the media error verdict — the slot airs nothing;
    - {b queue overflow}: more than [depth] reads in flight when the
      read was submitted — the read is shed at submit time.

    All faults surface as idle air to clients, unifying server faults
    with the channel fault model of {!Pindisk_sim.Fault}: a client
    cannot tell a lost block from one that was never aired, and the IDA
    redundancy absorbs both.

    The queue (plus the monotone read-id counter) is exactly the
    volatile state a crash destroys; {!queue}/{!restore} expose it for
    {!Checkpoint}. *)

module Ida = Pindisk_ida.Ida

type status =
  | Pending of int  (** completes at the carried slot *)
  | Shed_overflow  (** rejected at submit: queue full *)
  | Shed_failed  (** the latency process returned [Failed] *)

type request = {
  id : int;  (** monotone read id (the latency-process coordinate) *)
  file : int;
  occurrence : int;  (** which transmission of the file this read feeds *)
  issued : int;  (** the slot the read was submitted *)
  air : int;  (** the slot the piece is due on the air *)
  status : status;
}

type t

val create :
  ?depth:int -> latency:Latency.t -> program:Pindisk.Program.t ->
  (int * int * bytes) list -> t
(** [create ~latency ~program files] stores [(file_id, m, content)]
    triples dispersed to the program's capacities, exactly as
    {!Pindisk_sim.Transport.create} (same validation). [depth] (default
    8, [>= 1]) bounds the outstanding-request queue. *)

val program : t -> Pindisk.Program.t

val program_digest : t -> string
(** [Pindisk_adapt.Swap.digest (program t)], taken on first use and kept
    for the store's lifetime (the program never changes). Safe to call
    from several domains: racing first calls compute the same digest. *)

val source_blocks : t -> int -> int option
(** The [m] of a stored file, or [None]. *)

val outstanding : t -> slot:int -> int
(** Reads in flight at the slot: submitted, not failed or shed, and not
    yet completed. *)

val submit : t -> slot:int -> air:int -> file:int -> occurrence:int -> unit
(** Issue the read feeding [air] ([>= slot]). Draws the latency verdict,
    or sheds the read if [outstanding >= depth]. Raises
    [Invalid_argument] for unknown files. *)

val take : t -> slot:int -> [ `Ready of Ida.piece | `Late of int | `Failed | `Overflow | `Missing ]
(** Resolve the read due on the air at [slot] and remove it from the
    queue bookkeeping (a late read keeps occupying the queue until its
    completion slot passes). [`Late ready_at] names the slot the read
    will finally complete; [`Missing] means no read was ever submitted
    for the slot (a server bug — the server always prefetches busy
    slots). *)

val queue : t -> request list
(** The outstanding-request queue, oldest first (checkpoint state). *)

val next_read : t -> int
(** The id the next submitted read will get (checkpoint state). *)

val restore : t -> next_read:int -> request list -> unit
(** Overwrite the volatile queue state from a checkpoint. *)
