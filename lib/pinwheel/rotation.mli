(** Rotation scheduling: round-robin within residue classes.

    Pick a base [g] and split the timeline into [g] interleaved columns
    (slot [t] belongs to column [t mod g]); the tasks assigned to one
    column are served round-robin, so a column holding [k] tasks serves
    each of them exactly every [g·k] slots — satisfying [pc(1, b)]
    whenever [g·k <= b].

    This is the construction behind Holte et al.'s two-distinct-numbers
    schedulers, and it is {e complementary} to chain specialization
    ({!Specialize}): specialization exploits window {e doubling} (a window
    loses at most 2x rounding down the chain), rotation exploits window
    {e multiples} of a common base (a window [b] serves [⌊b/g⌋] sharers
    with no rounding loss at all). For [{(1,2), (1,7), (1,7), (1,7)}],
    specialization fails (7 rounds to 4; density 1/2 + 3/4 > 1) while
    rotation with [g = 2] packs all three 7-windows into one column.

    Multi-unit tasks are decomposed into exact-period copies first, as
    everywhere else in this library. *)

val assign : g:int -> (int * int) list -> (int * int * int) list option
(** [assign ~g units] places unit tasks [(key, window)] into [g] columns:
    returns [(key, column, class_size)] triples, where the task is served
    at slots [≡ column (mod g)] in a round-robin of [class_size] members —
    or [None] if no first-fit assignment keeps every column's
    [g·size <= min window]. Raises [Invalid_argument] when [g < 1]. *)

val plan_with_base : g:int -> Task.system -> Plan.t option
(** Build and verify the dispatch plan for one base: member [j] of a
    [k]-member column [c] is the progression [c + g·j (mod g·k)]. *)

val plan : Task.system -> Plan.t option
(** Try every base [g] from the smallest window down to 1, preferring
    larger bases (finer columns waste less), and return the first
    verified plan. *)
