(* splitmix64's odd multiplier folded into 62 bits, then its high bits
   xored down: [Hashtbl.Make] indexes buckets by the low bits, and dense
   or strided ids must not collide there. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x3f58476d1ce4e5b9 in
    (h lxor (h lsr 29)) land max_int
end)
