(** Exact-period placement of unit tasks whose periods form a geometric
    chain [{x, 2x, 4x, …}].

    This is the constructive core shared by the specialization schedulers
    (Holte et al.'s single-integer reduction and the Chan–Chin-flavoured
    multi-base / two-chain schedulers): once every window has been
    specialized down to a chain value [x·2^k], each unit task can be given an
    {e exact} period equal to its specialized window and a fixed offset, such
    that no two tasks ever collide. A task served with exact period [q] and
    window [b >= q] trivially satisfies [pc(1, b)].

    Placement is a buddy allocator: slot [t] belongs to column [t mod x];
    within a column, tasks of period [x·2^k] occupy a residue class modulo
    [2^k] of the column's frame index. Tasks are placed by increasing
    period, each into the free class of largest modulus, in the lowest
    column, split binarily down to its own modulus. Because periods only
    grow, every free modulus is at most the one wanted, and a split fills
    only moduli that had no free class: there is at most one free class per
    modulus above 1, and the modulus-1 classes are the untouched columns,
    kept as a counter. Splitting is lossless for dyadic sizes, so packing
    succeeds {e iff} the specialized density [Σ 1/(x·2^k)] is at most 1 —
    no capacity is wasted beyond the specialization itself. The cost is
    O(units·log units), whatever [x] and the periods. *)

type assignment = { key : int; offset : int; period : int }
(** The task identified by [key] occupies exactly the slots
    [offset + i·period], [i >= 0]. Distinct assignments never collide. *)

val pack : x:int -> (int * int) list -> assignment list option
(** [pack ~x tasks] places each [(key, period)] pair; keys may repeat (e.g.
    the copies from {!Task.decompose_units}). Every [period] must be of the
    form [x·2^k] ([k >= 0]); raises [Invalid_argument] otherwise. Returns
    [None] exactly when [Σ 1/period > 1]. *)
