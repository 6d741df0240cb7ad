(** Schedulability analysis and diagnosis for pinwheel systems.

    Answers not just {e whether} a system is schedulable but {e why not}
    when it is not — with machine-checkable certificates — and which
    structural properties the constructive schedulers can exploit.

    Infeasibility certificates:
    - density above 1 (the basic necessary condition of Section 3.1);
    - exhaustion: the exact search ({!Exact.decide}) proved no infinite
      schedule exists.

    No window-counting certificate is needed beside the density one: at
    density [<= 1], [Σ_i a_i·⌊w/b_i⌋ <= w·density <= w] for every window
    length [w], so no span of slots is ever over-committed.

    The classification records whether the windows are harmonic (every
    window divides every larger one — schedulable iff density <= 1, by
    construction), take at most two distinct values (the Holte et al.
    two-distinct-numbers regime), or sit within a scheduler's guarantee
    (density <= 1/2 for the reduction schedulers). *)

module Q = Pindisk_util.Q

type certificate =
  | Density_above_one of Q.t
  | Exhausted  (** exact search: no infinite schedule exists *)

type verdict =
  | Schedulable of Schedule.t
  | Infeasible of certificate
  | Unknown  (** heuristics failed; the search spent its state budget *)

type report = {
  density : Q.t;
  harmonic : bool;  (** windows pairwise divide *)
  distinct_windows : int;
  unit_system : bool;
  within_sa_guarantee : bool;  (** density <= 1/2 *)
  certificate : certificate option;  (** first infeasibility proof found *)
  verdict : verdict;
}

val is_harmonic : Task.system -> bool

val analyze : Task.system -> report
(** Full analysis: certificates first, then the constructive schedulers,
    then {!Exact.decide} at its default budget. Raises [Invalid_argument]
    on empty or duplicate-id systems. *)

val pp_report : Format.formatter -> report -> unit
