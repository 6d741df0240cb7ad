(** Observability snapshots ({!Pindisk_obs.Snapshot}) as JSON.

    The serialization half of the obs layer lives here so [lib/obs]
    stays dependency-free and snapshots ride the same {!Json} tree as
    the audit artifacts. Derived fields in the rendering ([mean] and the
    [p50]/[p90]/[p99] estimates, [Null] when empty) are recomputed from
    the carried data on re-serialization, so re-rendering what
    {!snapshot_of_string} parsed reproduces anything {!snapshot_to_json}
    printed — the round-trip the
    [pindisk stats --check] cram test diffs byte-for-byte. *)

val snapshot_to_json : Pindisk_obs.Snapshot.t -> Json.t

val snapshot_of_string : string -> (Pindisk_obs.Snapshot.t, string) result
(** {!Json.of_string} composed with the decoder of {!snapshot_to_json}'s
    output, carrying the ["pindisk-metrics v1"] schema; other schemas and
    malformed fields are rejected with a located reason. *)
