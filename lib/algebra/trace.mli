(** Derivation traces for the pinwheel algebra.

    Every conversion the algebra performs ({!Convert.tr1}, {!Convert.tr2},
    {!Convert.best_single}) is a chain of rule applications from Figure 8
    (R0–R5, TR1, TR2). A {e trace} records that chain explicitly: which rule
    fired, on which operands, with which side-condition witnesses, and what
    condition it concluded — so that an {e independent} checker (the trusted
    kernel in [pindisk.check]) can re-establish the implication
    [nice conjunct ⟹ bc(file, m, d⃗)] by pure arithmetic, without trusting
    any code in this library.

    The design is LCF-style: the producer ships {e witnesses} (the R1
    scaling factor of an implication, the guaranteed occurrence count of a
    window-coverage argument), so the checker never searches — every step
    reduces to a handful of integer inequalities. Steps may reference the
    emitted nice entries ({!Emitted}) or the conclusions of {e earlier}
    steps ({!Derived}); a checker must reject forward or out-of-range
    references, which makes a trace tamper-evident under reordering. *)

type cond = { a : int; b : int }
(** An anonymous pinwheel condition [pc(a, b)]: at least [a] occurrences in
    every window of [b] slots. *)

type source =
  | Emitted of int  (** the [i]-th entry of the nice conjunct (0-based) *)
  | Derived of int  (** the conclusion of the [k]-th earlier step (0-based) *)

type step =
  | Implies of { premise : source; scale : int; target : cond }
      (** The R1;R2;R0 composition: from satisfied [premise = pc(a, b)],
          conclude [target = pc(c, e)]. Witness [scale = n]: valid iff
          [n >= 1], [n·a >= c] and [n·(b - a) <= e - c]. *)
  | Conjoin of {
      base : source;
      guaranteed : int;
      scale : int;
      alias : source;
      target : cond;
    }
      (** The R4 family (window coverage): [base] forces [guaranteed]
          occurrences into every window of [target.b] slots (witnessed by
          [scale], the R1 factor of that implication), and [alias] — a
          {e distinct} pseudo-task with [alias.b = target.b] — adds
          [alias.a] more; together [guaranteed + alias.a >= target.a]. *)
  | Align of { base : source; scale : int; alias : source; target : cond }
      (** The R5 family: with [n = scale], [alias.b = n·base.b >= target.b].
          Every [n·base.b]-window holds [n·base.a] base plus [alias.a] alias
          occurrences; at most [n·base.b - target.b] of them fall outside a
          given [target.b]-subwindow, so the target needs
          [n·base.a + alias.a + target.b - alias.b >= target.a]. *)

type t = {
  file : int;  (** the broadcast file the conversion is for *)
  m : int;  (** [m] of the original [bc(file, m, d⃗)] *)
  d : int array;  (** the latency vector [d⃗] *)
  transform : string;  (** producer label: ["TR1"], ["TR2"], ["single"], … *)
  nice : cond list;  (** the emitted nice conjunct, in entry order *)
  steps : step list;
      (** the derivation; every level [j] of the vector must end up as the
          target of some step (or verbatim among [nice]) *)
}

val make :
  file:int -> m:int -> d:int array -> transform:string -> nice:cond list ->
  steps:step list -> t
(** Plain record construction (no checking — traces are {e claims}; the
    kernel in [pindisk.check] is what validates them). The [d] array is
    copied. *)

val reduction : file:int -> m:int -> tolerance:int -> window:int -> t
(** The trace of the paper's simple-model reduction (Section 3.2): file
    [(m, T, r)] is served by the single pinwheel task [pc(m + r, B·T)],
    which implies [pc(m + j, B·T)] for every fault level [j <= r] by R0
    alone (witness scale 1). [window] is [B·T] in slots. *)

val density : t -> Pindisk_util.Q.t
(** Exact density of the emitted nice conjunct, [Σ aᵢ/bᵢ]. *)

val step_count : t -> int

val pp_cond : Format.formatter -> cond -> unit
