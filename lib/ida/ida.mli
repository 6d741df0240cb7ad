(** Rabin's Information Dispersal Algorithm over GF(2{^8}).

    A file is split into [m] source blocks and *dispersed* into [n >= m]
    blocks ([n <= 255]) such that {e any} [m] of the dispersed blocks suffice
    to reconstruct the file exactly (Section 2.1 of the paper). Dispersal and
    reconstruction are matrix multiplications: the dispersal matrix is an
    [n x m] Vandermonde matrix (any [m] rows are independent), and
    reconstruction inverts the [m x m] submatrix corresponding to the rows
    that were actually received.

    Dispersed blocks are {e self-identifying}: each {!piece} carries the
    index of the dispersal-matrix row that produced it, which is what lets a
    client pick the correct inverse transformation (the paper assumes the
    same of broadcast blocks). *)

type piece = { index : int; data : bytes }
(** One dispersed block: [index] identifies the dispersal-matrix row
    (block "[index+1] out of [n]"), [data] its payload. Every piece of a
    dispersal has the same payload size [ceil (file_size / m)]. *)

type t
(** A dispersal context for fixed [m]: caches the systematic dispersal
    matrix (rows [0 .. m-1] are the identity, so the first [m] pieces are
    source blocks verbatim) and the reconstruction inverses for row
    subsets already seen (the paper notes the inverse transformations
    "could be precomputed"), each with its erased rows compiled for the
    row kernel ({!Pindisk_gf256.Gf256.encode}). The inverse cache is a fixed-size lock-free hash table
    of atomic slots holding immutable entries: lookups and inserts are
    safe from any number of domains concurrently, the entry count never
    exceeds the cap (so adversarial loss patterns — up to [C(255, m)]
    distinct row subsets — cannot grow it without bound), and under
    pressure the oldest entry in a colliding probe window is replaced.
    Contexts are cheap; reuse one per file class for speed, including
    across domains. *)

val create : m:int -> t
(** [create ~m] prepares dispersal with [m] source blocks,
    [1 <= m <= 255]. The inverse cache is capped at 256 entries by
    default; adjust with {!set_cache_cap}. *)

val set_cache_cap : t -> int -> unit
(** [set_cache_cap t cap] bounds the reconstruction-inverse cache to [cap]
    entries ([>= 1]), swapping in a fresh table that carries over the
    youngest entries. Administrative: safe to call while other domains
    reconstruct, but entries they insert during the swap may be
    dropped. *)

val m : t -> int

val disperse : ?pool:Pindisk_util.Pool.t -> t -> n:int -> bytes -> piece array
(** [disperse t ~n file] produces [n] dispersed blocks, [m <= n <= 255].
    [file] is padded internally to a multiple of [m] bytes; use
    {!reconstruct} with the original length to strip the padding. The result
    has pieces in index order [0 .. n-1]; pieces [0 .. m-1] are the source
    blocks verbatim (systematic prefix, emitted by memcpy); each coded
    piece is one run of the row kernel over the file, read in place (one
    zero-padded copy stands in when the length is not a multiple of [m]).
    When [pool] is given and the encode work is large enough to
    amortize fan-out, the (row) x (16 KiB column block) task grid is
    spread across its domains; the output is byte-identical to the
    sequential path. *)

val reconstruct : ?pool:Pindisk_util.Pool.t -> t -> length:int -> piece list -> bytes
(** [reconstruct t ~length pieces] rebuilds the original file of [length]
    bytes from any [>= m t] distinct pieces: the [m] lowest distinct
    indices are used and extras are ignored; duplicate indices keep the
    {e first} occurrence in list order, so the result is deterministic
    even when a corrupted duplicate disagrees. Only erased source blocks
    cost field arithmetic: a block that arrived verbatim (every
    systematic piece, and every piece when [m = 1]) is copied straight
    into the result, and the row kernel rebuilds each remaining block
    from the chosen pieces in place, straight into the result at its
    offset (only bytes below [length] are written). Raises [Invalid_argument] if any
    supplied index, extras included, lies outside [0 .. 254], if fewer
    than [m] distinct indices are supplied, if the chosen pieces' sizes
    disagree, or if [length] exceeds what the pieces encode. [pool]
    parallelizes the erased-block rebuild exactly as in {!disperse}. *)

val cached_inverses : t -> int
(** Number of reconstruction inverses currently cached (always
    [<= cache_cap]). *)

val cache_stats : t -> int * int
(** [(hits, misses)] of the reconstruction-inverse cache since [create],
    counted per {!reconstruct} lookup. Concurrent first lookups of one
    row subset may each count a miss (each computes its own inverse; the
    cache keeps one). *)

val encode_passes : unit -> int
(** Cumulative number of row-encode passes performed by {!disperse} and
    {!reconstruct} across all contexts (one pass per piece produced or
    source block rebuilt). Monotone; take a delta around a call to count
    its encode work. *)

val overhead : m:int -> n:int -> float
(** Bandwidth expansion factor [n/m] of a dispersal level. *)
