(** The whole-design auditor: static verification of a broadcast-disk
    design, end to end, without running the simulator.

    [run] drives the library's own pipeline (Designer.plan or
    Generalized.program) on a {!Spec.t} and then {e independently}
    re-establishes, by counting and arithmetic only:

    - {b vector conditions} — every fault level [pc(m + j, d⁽ʲ⁾)] of every
      file's [bc(i, m, d⃗)] is re-counted on the broadcast period via
      {!Pindisk_pinwheel.Verify.window_counts};
    - {b derivation traces} — the algebra's certified rewrites (or the
      simple-model reduction, for Designer specs) are validated by the
      trusted {!Kernel};
    - {b density} — the exact rational density of the scheduled system
      ([Σ (m_i + r_i) / (B·T_i)] at the chosen bandwidth for Designer
      specs, not the program's busy fraction) is recomputed and banded
      by {!Pindisk_pinwheel.Density.of_density},
      flagging the [(1/2, 5/6]] band where a schedule exists by Kawamura's
      theorem but the planner guarantees none;
    - {b dispersal} — every file's [(m, capacity)] IDA level is checked
      for the MDS property ({!Mds}).

    The outcome is a structured report with a JSON rendering — the
    artifact [pindisk audit] prints and CI gates on. *)

module Q = Pindisk_util.Q
module Trace = Pindisk_algebra.Trace

(** The density verdict ({!Pindisk_pinwheel.Density.of_density}) as a
    band. *)
type band =
  | Sa_guarantee  (** [Guaranteed], density <= 1/2: the planner always plans *)
  | Kawamura  (** [Exists], in (1/2, 5/6]: a schedule exists, none guaranteed *)
  | Above_five_sixths  (** [Unknown], in (5/6, 1]: beyond the Kawamura threshold *)
  | Above_one  (** [Infeasible], > 1 *)

val band_of_density : Q.t -> band

type level_report = {
  level : int;  (** fault count [j] *)
  window : int;  (** [d⁽ʲ⁾] in slots *)
  required : int;  (** [m + j] *)
  observed : int;  (** worst-case occurrences actually counted *)
}

type file_report = {
  file : int;
  name : string;
  m : int;
  tolerance : int;
  capacity : int;
  levels : level_report list;
  mds : (Mds.outcome, string) result;
}

type t = {
  kind : string;  (** ["designer"] or ["generalized"] *)
  period : int;  (** broadcast period of the audited program *)
  density : Q.t;  (** exact density of the scheduled pinwheel system *)
  band : band;
  files : file_report list;
  traces : Trace.t list;
  trace_result : (unit, int * Kernel.reject) result;
}

val run : Spec.t -> (t, string) result
(** Build the design and audit it. [Error] when the pipeline itself cannot
    produce a program (infeasible design) — there is nothing to audit. *)

val problems : t -> string list
(** Violations that make the audit fail: an under-served fault level, a
    rejected trace, a failed MDS check, density above one. *)

val ok : t -> bool
(** [problems] is empty. *)

val to_json : t -> Json.t
(** The full report, including the derivation traces themselves
    (as {!Witness.trace_to_json} renders them, for {!Kernel.validate} to
    re-check). *)
