(** Read-only transactions over a broadcast disk.

    The paper's motivating clients run {e transactions} — "active
    transactions that are fired up to warn soldiers" — that need several
    data items together, under one firm deadline. A broadcast client has
    a single receiver but can harvest blocks of {e all} its files in one
    pass ("as they go by"), so a transaction's retrieval time is the
    maximum, not the sum, of its reads — and the worst case must be taken
    over tune-in slots {e jointly}, which is strictly tighter than
    combining per-file worst cases. *)

type spec = { file : int; needed : int; tolerate : int }
(** One read: collect [needed] distinct blocks of [file], surviving up to
    [tolerate] ruined receptions of that file. *)

type outcome = {
  completed_at : int option;
  elapsed : int option;  (** tune-in through last completion, inclusive *)
  losses : int;
}

val retrieve :
  program:Pindisk.Program.t -> reads:spec list -> start:int ->
  fault:Fault.t -> outcome
(** Simulate one client executing the transaction: a single fault process
    governs the channel; every on-air block of any read's file is
    harvested, for at most 100 data cycles. Raises [Invalid_argument] on an empty read set, duplicate
    files, or a read exceeding its file's capacity. *)

val worst_case :
  Pindisk.Program.t -> reads:spec list -> int
(** Exact worst case over tune-in slots of the transaction's retrieval
    time, with each read [r] attacked by its own budget of
    [r.tolerate] adversarial errors (adversaries on different files are
    independent, which is exact because a ruined reception of one file
    never helps against another). Subject to {!Adversary}'s capacity
    limit of 20 per file. *)

val worst_case_shared :
  Pindisk.Program.t -> reads:spec list -> errors:int -> int
(** Worst case when the adversary has one {e shared} budget of [errors]
    to distribute across the reads (per-read [tolerate] fields are
    ignored). Because the transaction finishes with its slowest read,
    splitting the budget never beats concentrating it on the read it
    hurts most, so this is exact and cheap: the maximum over tune-in
    slots and reads of the single-file worst case with the full
    budget. *)
