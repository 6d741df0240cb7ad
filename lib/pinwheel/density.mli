(** Density pre-check: decide what density theory already settles, before
    any scheduler runs.

    The published schedulability frontier for pinwheel systems, by total
    density [Σ a/b]:

    - [> 1]: infeasible — pigeonhole over any hyperperiod.
    - [<= 1/2]: schedulable, constructively — Holte et al.'s
      single-integer reduction (our [Sa]) always succeeds, and
      [Scheduler.plan]'s first stage dominates it.
    - [<= 5/6]: a schedule exists — Kawamura's proof of the density
      threshold conjecture (arXiv:2606.27104), which no code here
      constructs: [Scheduler.plan] searches within a state budget. Tight:
      the family [{2, 3, M}] has density [5/6 + 1/M] and is infeasible for
      every finite [M] (the paper's Example 1; Holte et al. 1989). Mishra,
      Rho & Kleinberg (arXiv:2508.18422) sharpen the bound beyond [5/6]
      for instances whose {e minimum} window is large; this module stays
      with the universally valid [5/6].

    Both bounds transfer to multi-unit systems through
    {!Task.decompose_units} (density is preserved, and a schedule of the
    decomposition serves the original).

    [Scheduler.Auto] consults {!classify} to skip doomed attempts (verdict
    [Infeasible]) without running any construction, and callers can use
    [Guaranteed] to promise success before paying for a schedule. *)

type verdict =
  | Infeasible of string  (** provably unschedulable; the reason cites the bound *)
  | Guaranteed of string  (** [Scheduler.plan] always plans it *)
  | Exists of string  (** a schedule exists; [Scheduler.plan] may not find it *)
  | Unknown  (** between the bounds: only a scheduler run can tell *)

val pp_verdict : Format.formatter -> verdict -> unit

val classify : Task.system -> verdict
(** Sound on both sides: [Infeasible] only by the pigeonhole bound or the
    [{2, 3, _}] family argument; [Guaranteed] only by the Holte et al.
    1/2 bound, [Exists] only by Kawamura's 5/6. Never runs a scheduler. *)

val of_density : Pindisk_util.Q.t -> verdict
(** What the density alone settles: {!classify} without the [{2, 3, _}]
    family argument. *)

(** {1 Incremental loads}

    A channel packer tests each candidate channel against its members.
    A {!load} keeps exactly what {!classify} reads of them: the exact
    density sum, the task count, and whether a unit task of window 2 or
    of window 3 is present. {!add} and {!admits} are O(1), whatever the
    number of members. *)

type load

val empty : load
val add : load -> Task.t -> load

val density : load -> Pindisk_util.Q.t
(** The exact density sum of the tasks added. *)

val admits : load -> Task.t -> bool
(** [admits (List.fold_left add empty tasks) t] is
    [classify (t :: tasks) <> Infeasible _]. *)
