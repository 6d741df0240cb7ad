(** Crash-restart checkpoints for the broadcast {!Server}.

    A checkpoint captures the server's complete volatile state:

    - the {b slot cursor} — the next slot the server will air, plus the
      period stamp (which broadcast cycle that slot falls in) for
      human-readable drift diagnostics;
    - the {b per-file occurrence counters} the prefetch cursor has
      assigned — these drive block cycling, so losing them would re-air
      the wrong piece indices;
    - the {b read-id counter} and the {b outstanding-request queue} of
      the {!Block_store} — in-flight reads at the instant of the
      checkpoint, so a restart re-observes the very same service
      verdicts;
    - the {b program digest} — restore refuses a checkpoint taken
      against a different program (restoring across a hot-swap seam
      would silently air stale content).

    Everything else the server needs (the plan, the stored bytes, the
    latency process) is durable configuration, reconstructed from the
    same inputs at restart. Serialized as [pindisk-checkpoint v1] JSON
    over {!Pindisk_check.Json}; print → parse → print is byte-stable,
    and {!of_string} rejects unknown schemas and malformed queues. *)

type t = {
  slot : int;  (** the next slot the server will air *)
  period : int;  (** broadcast period of the checkpointed program *)
  period_stamp : int;  (** [slot / period] — the cycle the slot is in *)
  program_digest : string;  (** {!Pindisk_adapt.Swap.digest} of the program *)
  next_read : int;
  counts : (int * int) list;  (** per-file prefetch occurrence counters *)
  queue : Block_store.request list;
}

val to_string : t -> string
val of_string : string -> (t, string) result

val save : t -> string -> unit
(** Write to a file (the whole JSON artifact, atomically via rename). *)

val load : string -> (t, string) result
