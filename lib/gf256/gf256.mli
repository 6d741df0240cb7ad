(** Arithmetic in the finite field GF(2{^8}).

    This is the substrate for the Information Dispersal Algorithm (Rabin
    1989; Bestavros 1990): dispersal and reconstruction are matrix
    multiplications over "a particular irreducible polynomial" — we use the
    AES polynomial [x^8 + x^4 + x^3 + x + 1] (0x11B).

    Field elements are represented as [int]s in [0, 255]. All operations are
    table-driven (log/antilog over the generator 3), so multiplication and
    inversion are O(1) lookups. Arguments outside [0, 255] are masked to
    their low byte. *)

type t = int
(** A field element in [0, 255]. *)

val add : t -> t -> t
(** Addition = subtraction = XOR in characteristic 2. *)

val mul : t -> t -> t

val div : t -> t -> t
(** Raises [Division_by_zero] on a zero divisor. *)

val inv : t -> t
(** Multiplicative inverse; raises [Division_by_zero] on [0]. *)

val pow : t -> int -> t
(** [pow x k] for [k >= 0]; [pow 0 0 = 1] by convention. *)

val exp : int -> t
(** [exp k] is the generator [3] raised to the [k]-th power (k taken
    mod 255). *)

(** The bulk kernels below index one flattened table of every
    coefficient's 256 products (64 KiB, built once at module
    initialization). *)

val axpy : acc:bytes -> coeff:t -> src:bytes -> unit
(** [axpy ~acc ~coeff ~src] performs [acc.(i) <- acc.(i) + coeff * src.(i)]
    for every byte — branch-free, one unsafe multiplication-table lookup
    per byte. Raises [Invalid_argument] when lengths differ. [coeff = 0]
    is a no-op. *)

val mul_into : dst:bytes -> coeff:t -> src:bytes -> unit
(** [mul_into ~dst ~coeff ~src] overwrites [dst.(i) <- coeff * src.(i)]
    for every byte ([dst = src] is allowed). Raises [Invalid_argument]
    when lengths differ. *)

val encode_row : dst:bytes -> coeffs:t array -> srcs:bytes array -> unit
(** [encode_row ~dst ~coeffs ~srcs] overwrites
    [dst.(i) <- sum_j coeffs.(j) * srcs.(j).(i)] — one fused pass applying
    a whole dispersal-matrix row, writing each output byte exactly once
    instead of one read-modify-write sweep per coefficient. The pass moves
    16 bits per step through per-coefficient wide tables (see
    [ensure_tables]). Zero coefficients are skipped. Raises
    [Invalid_argument] when [coeffs] and [srcs] disagree in length or any
    source length differs from [dst]. *)

val encode_row_strided :
  dst:bytes -> coeffs:t array -> src:bytes -> stride:int -> unit
(** [encode_row_strided ~dst ~coeffs ~src ~stride] is [encode_row] with
    source block [j] read in place at offset [j * stride] of the single
    buffer [src] — dispersal over a contiguous file needs no per-block
    extraction copies. Requires [stride >= Bytes.length dst] and
    [Bytes.length src >= Array.length coeffs * stride]; raises
    [Invalid_argument] otherwise. *)

type lanes
(** Packed per-coefficient lane tables for a group of 1 to 4 matrix rows:
    table entry [b] of coefficient column [j] holds the four products
    [rows.(r).(j) * b] in byte lanes [r] of one native int, so the SWAR
    kernel accumulates every row of the group with a single lookup per
    source byte (eight source bytes per 64-bit load). Immutable once
    built — safe to share across domains. *)

val lanes : t array array -> lanes
(** [lanes rows] builds the packed tables for 1 to 4 rows of equal width
    (256 ints per coefficient column). Raises [Invalid_argument] on 0 or
    more than 4 rows, or unequal widths. Zero coefficients are packed
    like any other (their lane is all-zero). *)

val encode_lanes :
  lanes ->
  dsts:bytes array -> src:bytes -> stride:int -> pos:int -> len:int -> unit
(** [encode_lanes l ~dsts ~src ~stride ~pos ~len] runs the SWAR kernel
    over one column block: [dsts.(r).(pos + i) <- sum_j rows.(r).(j) *
    src.(j * stride + pos + i)] for [0 <= i < len], where [rows] are the
    rows [l] was built from. [dsts] may name fewer destinations than
    the rows [l] packs; the surplus high lanes are simply not stored, which
    lets one table set built for a full group serve calls that need only
    a prefix of its rows. The [pos]/[len] window is how callers block the
    columns into cache-sized parallel tasks: distinct blocks write
    disjoint byte ranges, so tasks never race. No alignment is required
    of [pos], [len] or [stride]. The kernel allocates nothing: its
    accumulators stay in registers whatever [len] and the number of
    destinations. Raises [Invalid_argument] when [dsts] is
    empty or larger than the group, any destination is shorter than
    [pos + len], or [src] is shorter than [(width-1) * stride + pos +
    len]. *)

val ensure_tables : t array -> unit
(** Pre-build the lazily-constructed 128 KiB wide multiplication tables
    for the given coefficients (each maps a 16-bit source unit to its
    coefficient-scaled unit), used by the single-row kernels
    {!encode_row} and {!encode_row_strided}. Purely a warm-up: table
    publication is race-free one-shot (first caller builds, racing
    callers wait), so parallel encoders are correct without it. *)

val wide_table_builds : unit -> int
(** Cumulative number of 128 KiB wide tables actually built (across all
    coefficients, process-wide). Monotone. One-shot publication means a
    coefficient contributes exactly one build no matter how many domains
    race on its first use — take a delta around a race to test that. *)

val log : t -> int
(** Discrete log base 3; raises [Invalid_argument] on [0]. *)
