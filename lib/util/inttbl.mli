(** Hash tables keyed by native integers: {!Hashtbl.Make} over a
    multiply-and-fold mix instead of the polymorphic [caml_hash], for
    the file and task indexes that set-up fills and that lookups read
    once per slot or per run. *)

include Hashtbl.S with type key = int
