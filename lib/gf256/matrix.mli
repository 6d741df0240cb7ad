(** Dense matrices over GF(2{^8}).

    Provides exactly the linear algebra IDA needs: construction of
    Vandermonde dispersal matrices, matrix-vector products, row selection and
    inversion by Gauss–Jordan elimination. Matrices are immutable from the
    caller's point of view; every operation returns a fresh matrix. *)

type t
(** A [rows] x [cols] matrix of field elements. *)

val create : rows:int -> cols:int -> (int -> int -> Gf256.t) -> t
(** [create ~rows ~cols f] builds the matrix with [f i j] at row [i],
    column [j]. Dimensions must be positive. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> Gf256.t
(** [get m i j]; raises [Invalid_argument] out of bounds. *)

val identity : int -> t

val vandermonde : rows:int -> cols:int -> t
(** [vandermonde ~rows ~cols] has entry [x_i^j] at [(i, j)] with
    [x_i = exp i] (powers of the generator), so the [x_i] are pairwise
    distinct for [rows <= 255] and {e any} [cols] rows form an invertible
    square Vandermonde system — the property Rabin's IDA requires of its
    dispersal matrix. Raises [Invalid_argument] when [rows > 255]. *)

val systematic : rows:int -> cols:int -> t
(** [systematic ~rows ~cols] is {!vandermonde} right-multiplied by the
    inverse of its top [cols x cols] square: any [cols] rows still form an
    invertible system (each row subset is a product of invertibles), but
    rows [0 .. cols-1] are now the identity — a dispersal using this
    matrix emits the source blocks verbatim as its first [cols] pieces.
    Raises [Invalid_argument] when [rows > 255]. *)

val select_rows : t -> int array -> t
(** [select_rows m idx] is the matrix made of rows [idx.(0)], [idx.(1)], …
    of [m], in that order. *)

val mul : t -> t -> t
(** Matrix product; raises [Invalid_argument] on dimension mismatch. *)

val mul_vec : t -> Gf256.t array -> Gf256.t array
(** Matrix-vector product. *)

val invert : t -> t option
(** [invert m] is the inverse of square [m], or [None] if [m] is singular.
    Raises [Invalid_argument] if [m] is not square. *)

val equal : t -> t -> bool
