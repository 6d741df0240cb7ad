(** One client retrieving one file from a broadcast program.

    The client tunes in at some slot, watches blocks "as they go by",
    keeps every correctly received {e distinct} dispersed block of its
    file, and is done once it holds [needed] of them — with IDA, any
    [needed = m] distinct blocks reconstruct the file; without IDA the
    capacity equals [m], so "any [m] distinct" coincides with "all [m]". *)

type outcome = {
  completed_at : int option;
      (** the slot whose block completed the retrieval, if any *)
  elapsed : int option;
      (** slots from tune-in through completion, inclusive *)
  receptions : int;  (** correct receptions of this file's blocks *)
  losses : int;  (** receptions of this file's blocks ruined by faults *)
}

val pp_outcome : Format.formatter -> outcome -> unit

type error =
  | Unknown_file  (** not in the (possibly degraded) program *)
  | Never_broadcast  (** in the program but on no slot *)
  | Needed_exceeds_capacity of int
      (** the file's capacity; the client could never finish *)
  | Bad_request of string  (** malformed request (negative start, …) *)

val pp_error : Format.formatter -> error -> unit

val retrieve :
  ?max_slots:int -> ?report:(slot:int -> file:int -> lost:bool -> unit) ->
  program:Pindisk.Program.t -> file:int -> needed:int ->
  start:int -> fault:Fault.t -> unit -> (outcome, error) result
(** [retrieve ~program ~file ~needed ~start ~fault ()] simulates one
    retrieval. The fault process is {!Fault.reset_to} the start slot and
    advanced once per slot. [max_slots] (default [100 * data_cycle])
    bounds the wait: on overrun [completed_at = None]. [report], when
    given, is called for every busy slot the client watches with the
    reception outcome — the feedback path a server-side loss estimator
    (e.g. [Pindisk_adapt.Estimator]) consumes. A request the client
    could never serve is an [Error], never an exception: [Unknown_file]
    in particular is a live runtime condition once {!Pindisk_adapt}
    sheds files from a degraded program while clients still request
    them. *)

val deadline_met : outcome -> deadline:int -> bool
(** Whether the retrieval finished within [deadline] slots of tuning in. *)
