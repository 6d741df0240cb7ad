(** Design-spec files: the on-disk input of [pindisk audit].

    A design spec captures a complete deployment request in a small line
    format, so example designs can live in the repository and be audited
    in CI. Two kinds are supported, matching the library's two entry
    points:

    {v
    pindisk-design v1
    # a physical deployment (Designer.plan)
    rate 4096
    require incidents 1800 3 2     # NAME BYTES LATENCY_S [TOLERANCE]
    require guidance 5000 12 1
    v}

    {v
    pindisk-design v1
    # a generalized design (latency vectors; Generalized.program)
    bc 2 20,24,30                  # M D0,D1,... [CAPACITY]
    bc 1 6,9
    v}

    [#] starts a comment; blank lines are ignored; the header line is
    mandatory. [rate]/[require] and [bc] stanzas must not be mixed. *)

type t =
  | Designer of { byte_rate : int; reqs : Pindisk.Designer.requirement list }
  | Generalized of Pindisk.Generalized.spec list

val of_string : string -> (t, string) result
(** Parse a spec from its text; errors carry the 1-based line number. *)

val load : string -> (t, string) result
(** {!of_string} on a file's contents; [Error] on I/O failure too. *)
