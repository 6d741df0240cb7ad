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

(** The table kernels below ({!axpy}, {!mul_into}, {!encode_row},
    {!encode_row_strided}) index one flattened table of every
    coefficient's 256 products (64 KiB, built once at module
    initialization); the row kernel {!encode}, which dispersal and
    reconstruction run, reads no table. *)

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

type schedule
(** A row of coefficients [c_0 .. c_(k-1)] compiled for {!encode}: for
    each bit from the row's highest set bit down, the sources whose
    coefficient has that bit set. Immutable once built, so safe to
    share across domains. *)

val schedule : t array -> schedule
(** [schedule coeffs] compiles one row. Linear in the row's width. *)

val encode :
  schedule ->
  srcs:bytes array ->
  offs:int array ->
  pos:int ->
  dst:bytes ->
  dst_pos:int ->
  len:int ->
  unit
(** [encode sc ~srcs ~offs ~pos ~dst ~dst_pos ~len] is the row kernel:
    [dst.(dst_pos + i) <- sum_k c_k * srcs.(k).(offs.(k) + pos + i)] for
    [0 <= i < len], where [c] is the row [sc] was compiled from. Source
    [k] is the pair [(srcs.(k), offs.(k))], so sources are read in
    place, several from one buffer or each from its own. It needs no
    table: by Horner's rule over the coefficients' bits, each level
    multiplies the eight byte lanes of a 64-bit word by x, and the
    sources whose coefficient has that bit set are XORed in, four words
    at a time. The walk starts at the row's highest set bit, so a row
    of 1s is a plain copy or XOR of its sources. [pos] and [len] select
    a window, which is how callers split the columns into parallel
    tasks that write disjoint bytes. No alignment is required, and the
    kernel allocates nothing per word. [dst]'s window must not overlap
    a source window. Raises [Invalid_argument] when [srcs] or [offs] do
    not have one entry per coefficient, or a window falls outside
    [dst] or a source. *)

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
