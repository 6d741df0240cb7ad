(** End-to-end broadcast transport: real bytes over the simulated channel.

    {!Client} tracks block {e indices}; this module closes the loop with
    actual content. The server stores each file's bytes, disperses them
    with IDA into as many pieces as the program's capacity for the file,
    and puts the pieces on the air per the broadcast program; a receiving
    client collects pieces (losing some to the fault process) and
    reconstructs the original bytes with the IDA inverse transformation —
    the full pipeline of the paper's Figure 4 running over the programs of
    Section 3. *)

type t

val create : program:Pindisk.Program.t -> (int * int * bytes) list -> t
(** [create ~program files] takes [(file_id, m, content)] triples: the
    content is dispersed with [m] source blocks into [capacity program
    file_id] pieces (so any [m] of them reconstruct). Every file of the
    program must be given content, with [1 <= m <= capacity]. *)

val program : t -> Pindisk.Program.t

val on_air : t -> int -> (int * Pindisk_ida.Ida.piece) option
(** [on_air t slot] is the (file, dispersed piece) broadcast in that slot,
    or [None] for an idle slot. *)

val find_source_blocks : t -> int -> int option
(** The [m] a client needs for the file, or [None] for unknown files. *)

(** {1 Typed retrieval errors}

    {!retrieve} distinguishes the three ways a retrieval goes wrong, so
    callers can react differently: a {!Timeout} is transient (re-tune in
    later — [~attempts] automates that), an {!Unknown_file} is a caller
    bug, and a {!Reconstruct_failed} means the collected pieces were
    inconsistent (corruption — there is no point retrying with the same
    pieces). *)

type error =
  | Timeout of { slots : int; collected : int; needed : int }
      (** The slot budget ran out with only [collected] of the [needed]
          distinct pieces received. *)
  | Unknown_file of int  (** The file id is not stored by this server. *)
  | Reconstruct_failed of string
      (** IDA reconstruction rejected the collected pieces. *)

val pp_error : Format.formatter -> error -> unit

val retrieve :
  ?attempts:int -> ?backoff:int -> ?max_slots:int ->
  ?report:(slot:int -> file:int -> lost:bool -> unit) ->
  t -> file:int -> start:int -> fault:Fault.t -> unit ->
  (bytes, error) result
(** Collect pieces of [file] from slot [start] under the fault process
    until [m] distinct pieces arrive, then reconstruct: [Ok bytes] is
    bit-exact equal to the stored content (the tests assert it), and
    every way the retrieval can fail is an [Error]. Each attempt listens
    for at most [max_slots] slots (default 100 data cycles). On timeout
    the client backs off exponentially — attempt [i] waits
    [backoff * 2^(i-1)] slots (default [backoff] is one broadcast period)
    — and re-tunes in, up to [attempts] (default 1) attempts in total.
    Pieces collected before a timeout are kept across re-tune-ins
    (dispersal is fixed), so attempts make monotone progress. Each
    re-tune-in records an [Obs.Trace.Retry] span and bumps the
    [sim.transport.retries] counter. [report], when given, receives every
    busy slot's reception outcome — the feedback path a server-side loss
    estimator (e.g. [Pindisk_adapt.Estimator]) consumes. Raises
    [Invalid_argument] only on a malformed request: a negative [start],
    [attempts < 1] or [backoff < 1]. *)
