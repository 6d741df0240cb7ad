(** Static MDS audit of IDA dispersal matrices.

    Rabin's IDA promises that {e any} [m] of the [n] dispersed blocks
    reconstruct the file — equivalently, every [m]-subset of the rows of
    the [n x m] dispersal matrix is invertible over GF(2{^8}) (the MDS
    property). The runtime codec simply trusts this; the auditor
    re-establishes it:

    - {e exhaustively} when the subset count [C(n, m)] fits a budget —
      every submatrix is actually inverted by Gauss–Jordan;
    - {e structurally} otherwise — the dispersal matrix is Vandermonde on
      nodes [x_i = exp i], and a square Vandermonde system on pairwise
      distinct nodes is invertible, so checking node distinctness
      suffices. *)

type outcome =
  | Exhaustive of int
      (** all [C(n, m)] row subsets were inverted; carries the count *)
  | Structural
      (** too many subsets for the budget; the Vandermonde evaluation
          nodes were verified pairwise distinct instead *)
  | Failed of int array
      (** a singular [m]-subset of rows — the dispersal would lose data;
          carries the offending row indices *)

val pp_outcome : Format.formatter -> outcome -> unit

val check : int -> m:int -> (outcome, string) result
(** [check n ~m] audits the [n x m] dispersal matrix IDA uses for an
    [(m, n)] level. [Error] on nonsensical dimensions
    ([m < 1 || n < m || n > 255]). At most [10_000] subsets are inverted
    exhaustively. *)

val check_matrix :
  Pindisk_gf256.Matrix.t -> m:int -> (outcome, string) result
(** Exhaustive-only variant for an arbitrary matrix (no structural
    fallback — [Error] when [C(rows, m)] exceeds the budget). Exposed so
    tests can feed handcrafted singular matrices through the same
    subset-enumeration path. *)
