(** Population-scale simulation: run a request trace against a program.

    Requests are independent clients (broadcast reception does not
    contend), so the engine maps the trace through {!Client.retrieve},
    each request with its own deterministic fault process, and aggregates
    global and per-file statistics with percentiles. It is the simplest
    engine, kept as the oracle the production engine {!Cohort.run} is
    tested against (equal results, to the last float). *)

type file_stats = Retire.file_stats = {
  file : int;
  requests : int;
  missed : int;  (** late or never completed *)
  latency : Pindisk_util.Stats.t;  (** completed retrievals only *)
}

type result = Retire.result = {
  requests : int;
  completed : int;
  missed : int;
  latency : Pindisk_util.Stats.t;
  losses : int;
  per_file : file_stats list;  (** ascending by file id *)
}

val miss_ratio : result -> float

val file_miss_ratio : file_stats -> float
(** [missed / requests] for one file; [0.0] when the file saw no
    requests. Degradation experiments compare programs across workload
    sizes, so the ratio — not the raw count — is the comparable number. *)

val pp_file_stats : Format.formatter -> file_stats -> unit
(** "file F: N requests, M missed (R%)". *)

val run :
  ?max_slots:int -> program:Pindisk.Program.t ->
  fault:(seed:int -> Fault.t) -> seed:int -> Workload.request list -> result
(** [run ~program ~fault ~seed trace] executes every request; request [k]
    gets the fault process [fault ~seed:(Intmath.mix64 (seed + k))] — the
    splitmix64 finalizer decorrelates adjacent requests' fault streams,
    which plain [seed + k] does not. Raises [Invalid_argument] on a
    request {!Client.retrieve} rejects (unknown or never-broadcast file,
    [needed] below 1 or beyond the file's capacity, negative issue
    slot). *)

val pp_result : Format.formatter -> result -> unit
(** The global summary followed by one {!pp_file_stats} line per file,
    each with its per-file miss ratio. *)
