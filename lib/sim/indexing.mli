(** Air indexing versus self-identifying blocks (the paper's footnote 3).

    The paper assumes broadcast blocks are {e self-identifying}; the
    alternative it mentions — "broadcast a directory (or index) at the
    beginning of each broadcast period" — is the classic (1,m) indexing of
    Imielinski, Viswanathan & Badrinath (SIGMOD'94): interleave [m] copies
    of an index segment into the period so a dozing client can wake, read
    the next index, and sleep until its page's slot.

    Two metrics, per the classic work:
    - {e access time}: slots from tune-in until the wanted block has been
      received;
    - {e tuning time}: slots the receiver is actually awake (the energy
      cost). With self-identifying blocks the client must listen
      continuously, so tuning = access; with an index the client probes
      one slot, sleeps to the next index, reads it, and sleeps to the
      target (every data slot is assumed to carry the offset of the next
      index, as in the original protocol).

    The index copies are inserted as a pseudo-file, so the transformed
    program is a regular {!Pindisk.Program.t} (the index file's id is
    returned) — at the price of a longer period: indexing trades access
    time for tuning time; the paper's fault-tolerance argument against it
    (losing an index block stalls everyone) shows up as the index being a
    single point of failure in the loss simulation. *)

val with_index :
  Pindisk.Program.t -> copies:int -> index_slots:int ->
  Pindisk.Program.t * int
(** [with_index p ~copies ~index_slots] inserts [copies] index segments of
    [index_slots] slots, evenly spaced through the period; returns the new
    program and the index pseudo-file id (one above the largest file id).
    Raises [Invalid_argument] when [copies < 1], [index_slots < 1] or the
    period is not divisible by [copies]. *)

type metrics = { access_time : float; tuning_time : float }
(** Mean over all tune-in slots, in slots of the (possibly transformed)
    program. *)

val self_identifying_metrics :
  Pindisk.Program.t -> file:int -> needed:int -> metrics
(** Continuous listening: access = tuning = mean time to collect [needed]
    distinct blocks of the file. *)

val indexed_metrics :
  Pindisk.Program.t -> index_file:int -> index_slots:int -> file:int ->
  needed:int -> metrics
(** The (1,m) protocol on a program produced by {!with_index}: probe one
    slot, doze to the next index segment, read it, then doze and wake
    exactly for the file's next [needed] transmissions. *)

val indexed_retrieve_lossy :
  Pindisk.Program.t -> index_file:int -> index_slots:int ->
  file:int -> needed:int -> start:int -> fault:Fault.t -> metrics option
(** The same protocol on a lossy channel — the case the paper's footnote
    3 worries about. A ruined {e data} reception costs one more wake-up; a
    ruined {e index} reception is worse: the dozing client must stay with
    the channel to the next index copy before it can plan again. Losses
    hit receptions the client is awake for (dozing slots can't be lost —
    the radio is off). [None] if 100 data cycles
    elapse. *)
