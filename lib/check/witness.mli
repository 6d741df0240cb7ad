(** Serialized witnesses: derivation traces as JSON, the form the audit
    report embeds them in. Semantic validity of a trace is
    {!Kernel.validate}'s job. *)

module Trace = Pindisk_algebra.Trace

val trace_to_json : Trace.t -> Json.t
