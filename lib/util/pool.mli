(** A small hand-rolled domain pool (OCaml 5, no external dependencies).

    Worker domains are spawned once and parked on a condition variable;
    {!parallel_for} publishes an index range that workers and the calling
    domain claim cooperatively with a fetch-and-add counter. A pool of
    size 1 (the default on single-core machines) runs everything inline in
    the caller, so code written against the pool degrades gracefully to a
    sequential loop. *)

type t

val create : ?domains:int -> unit -> t
(** [create ?domains ()] spawns a pool of [domains - 1] worker domains
    (the submitting domain is the remaining participant). [domains]
    defaults to [Domain.recommended_domain_count ()] and is clamped to at
    most 128; raises [Invalid_argument] when [domains < 1]. *)

val size : t -> int
(** Number of domains that participate in a {!parallel_for}: worker count
    plus the caller. *)

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for t ~n f] runs [f 0 .. f (n-1)], distributing indices
    across the pool, and returns when all of them have completed. The
    caller participates, so the call makes progress even if every worker
    is busy with another job. If any [f i] raises, the first exception is
    re-raised in the caller after remaining indices are drained (they may
    be skipped). [f] must be safe to call from multiple domains.

    When {!Pindisk_obs.Control.enabled} is up, each call counts one
    [pool.jobs], classifies its [n] tasks as [pool.tasks.inline] (run as
    a plain loop) or [pool.tasks.fanned] (published to workers), and
    records the domain count that can actually participate —
    [min n (size t)], since surplus domains never claim an index when
    tasks are scarcer than domains — in the [pool.fanout] gauge. *)

val shutdown : t -> unit
(** Terminates and joins the worker domains. Subsequent {!parallel_for}
    calls on the pool raise [Invalid_argument]. *)
