(** A bounded ring-buffer event tracer with monotonic tick timestamps.

    Events carry a typed span — a broadcast slot, a fault burst, a
    reconstruction, a program hot-swap — and a tick issued by a global
    atomic counter, so ticks are unique and strictly increasing across
    domains. The ring holds the most recent [capacity ()] events; older
    ones are overwritten silently (the tick sequence makes the gap
    visible). Recording is gated on {!Control.enabled} internally and is
    lock-free: one fetch-and-add plus one store. *)

type span =
  | Slot of { slot : int; file : int; index : int }
      (** A busy broadcast slot put on the air. *)
  | Fault_burst of { slot : int; length : int }
      (** [length] consecutive busy slots lost, starting at [slot]. *)
  | Reconstruct of { file : int; pieces : int; bytes : int }
      (** A file rebuilt from [pieces] dispersed pieces. *)
  | Hot_swap of { slot : int; cause : string }
      (** An adaptive program swap installed at a cycle boundary. *)
  | Crash of { slot : int }
      (** The broadcast server died at the slot, losing volatile state. *)
  | Recover of { slot : int; replayed : int }
      (** The server restarted from its checkpoint at [slot], re-airing
          [replayed] slots that had been broadcast after the checkpoint. *)

type event = { tick : int; span : span }

val record : span -> unit
(** Append (no-op when {!Control.enabled} is false). *)

val events : unit -> event list
(** The buffered events, oldest first: the last
    [min (recorded ()) (capacity ())] recorded. Call when writers have
    quiesced for an exact answer. *)

val recorded : unit -> int
(** Total events ever recorded, including overwritten ones; also the
    latest tick issued. *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Replace the ring (buffered events are dropped; the tick counter is
    preserved). Raises [Invalid_argument] when [< 1]. *)

val reset : unit -> unit
(** Drop buffered events and restart ticks from 1. *)

