type t = { num : int; den : int }

let make num den =
  if den = 0 then invalid_arg "Q.make: zero denominator";
  let sign = if den < 0 then -1 else 1 in
  let num = sign * num and den = sign * den in
  let g = Intmath.gcd num den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1

let add_exn x y =
  let s = x + y in
  if (x >= 0) = (y >= 0) && (s >= 0) <> (x >= 0) then raise Intmath.Overflow
  else s

(* All four terms below 2^30 in magnitude: every cross product is below
   2^60, and a sum of two below 2^61, so plain int arithmetic is exact.
   [lsr] keeps [abs min_int] (still negative) out. *)
let small a b = (abs a.num lor a.den lor abs b.num lor b.den) lsr 30 = 0

(* Sums scale both sides to the lcm of the denominators, not their
   product: LPT load sums over many distinct windows would otherwise
   overflow on perfectly ordinary inputs. Small operands take the
   product, reduced by one gcd. *)
let add a b =
  if small a b then begin
    let num = (a.num * b.den) + (b.num * a.den) and den = a.den * b.den in
    let g = Intmath.gcd num den in
    { num = num / g; den = den / g }
  end
  else
    let g = Intmath.gcd a.den b.den in
    make
      (add_exn
         (Intmath.mul_exn a.num (b.den / g))
         (Intmath.mul_exn b.num (a.den / g)))
      (Intmath.mul_exn a.den (b.den / g))

let mul a b = make (Intmath.mul_exn a.num b.num) (Intmath.mul_exn a.den b.den)

let inv a =
  if a.num = 0 then raise Division_by_zero;
  make a.den a.num

let div a b = mul a (inv b)

(* [a/b] against [c/d] (b, d > 0) without forming a cross product, so no
   comparison of two representable values can overflow: integer parts
   first, then the reciprocals of the two remainders — the continued
   fractions of both values, term by term. *)
let rec compare_frac a b c d =
  let q = Intmath.floor_div a b and q' = Intmath.floor_div c d in
  if q <> q' then Stdlib.compare q q'
  else
    let r = a - (q * b) and r' = c - (q' * d) in
    if r = 0 || r' = 0 then Stdlib.compare r r' else compare_frac d r' b r

(* Small values cross-multiply: both products are below 2^60. *)
let compare a b =
  if small a b then Int.compare (a.num * b.den) (b.num * a.den)
  else compare_frac a.num a.den b.num b.den

let equal a b = compare a b = 0
let ( <= ) a b = compare a b <= 0
let ( < ) a b = compare a b < 0
let ( >= ) a b = compare a b >= 0
let ( > ) a b = compare a b > 0
let max a b = if a >= b then a else b
let sum = List.fold_left add zero
let to_float a = float_of_int a.num /. float_of_int a.den
let ceil a = Intmath.ceil_div a.num a.den

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
