(** Immutable captures of the registry and tracer.

    A snapshot is plain data — every field is public so serializers
    (e.g. [Pindisk_check.Metrics], which renders snapshots through the
    audit subsystem's JSON tree) and tests can build and inspect them
    without this library growing a serialization dependency. *)

type hist = {
  count : int;
  sum : int;
  lo : int;  (** observed minimum; 0 when empty *)
  hi : int;  (** observed maximum; 0 when empty *)
  buckets : (int * int) list;
      (** sparse non-zero [(bucket index, count)], ascending; indices are
          {!Histogram.bucket_of} indices *)
}

type t = {
  tick : int;  (** tracer tick at capture time *)
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;
  histograms : (string * hist) list;
  events : Trace.event list;  (** buffered trace, oldest first *)
}

val take : unit -> t
(** Capture the global registry and tracer. Exact when writers have
    quiesced (counters merge their shards on read). *)

val reset : unit -> unit
(** [Registry.reset] + [Trace.reset] in one call: the conventional
    prologue before an instrumented run. *)

val mean : hist -> float
(** [sum / count]; [0.0] when empty. *)

val quantile : hist -> float -> int
(** [quantile h p] for [p] in [[0, 1]]: the inclusive upper bound of the
    bucket holding the nearest-rank [p]-quantile sample. Because
    bucketing is monotone, the estimate always lies in the same bucket as
    the exact sorted-sample quantile — within one bucket's relative-error
    bound, a factor of about [sqrt 2]. Raises [Invalid_argument] when
    empty or [p] out of range. *)
