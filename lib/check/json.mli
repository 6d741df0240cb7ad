(** A minimal JSON tree, printer and parser.

    The audit subsystem ships machine-readable artifacts — audit reports,
    derivation traces, infeasibility certificates — and must also {e read}
    them back (re-validating an archived trace is the whole point of an
    independent checker), so both directions live here. Deliberately tiny:
    no streaming, deterministic output (object fields print in
    construction order). Audit artifacts remain integer-only (every
    rational in the checker is exact, serialized as
    [{"num": …, "den": …}] or a string); the [Float] case exists for the
    observability snapshots ({!Metrics}), which carry derived means, and
    is rendered losslessly — print → parse → print is byte-stable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Render. Default is pretty-printed with two-space indentation and a
    trailing newline — stable enough to diff as a golden artifact;
    [~minify:true] emits a single line. Floats print as the shortest
    decimal that parses back to the same float (always with a ['.'] or
    exponent, so they re-parse as [Float]); raises [Invalid_argument] on
    NaN or infinities, which have no JSON form. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document ([Error] carries position and reason).
    Accepts exactly what {!to_string} emits plus arbitrary whitespace.
    Numbers with a fraction or exponent become [Float] (rejected if they
    overflow to infinity); all others stay exact [Int]. *)

(** {1 Decoding helpers} *)

val member : string -> t -> t option
(** Field lookup in an [Obj] ([None] otherwise). *)

val to_int : t -> (int, string) result

val get_int : string -> t -> (int, string) result
(** [get_int k j] is the integer at field [k] of object [j]. *)

val get_float : string -> t -> (float, string) result
val get_str : string -> t -> (string, string) result
val get_list : string -> t -> (t list, string) result
