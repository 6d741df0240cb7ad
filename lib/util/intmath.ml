exception Overflow

(* [|x mod y| = |x| mod |y|], so Euclid on signed values walks the
   magnitudes of Euclid on their absolute values: one [abs] at the end. *)
let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let lcm a b =
  if a = 0 || b = 0 then 0
  else
    let g = gcd a b in
    let q = abs a / g in
    let r = q * abs b in
    if r / abs b <> q then raise Overflow else r

let lcm_list l = List.fold_left lcm 1 l

let mul_exn x y =
  if x = 0 || y = 0 then 0
  else
    let r = x * y in
    if r / y <> x then raise Overflow else r

let pow base e =
  if e < 0 then invalid_arg "Intmath.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul_exn acc b else acc in
      if e <= 1 then acc else go acc (mul_exn b b) (e lsr 1)
  in
  go 1 base e

(* Division truncates toward zero and the remainder takes the sign of
   the dividend, so one step corrects the quotient; nothing is added to
   [a] first, so no [a] near [max_int] or [-max_int] can overflow. *)
let floor_div a b =
  if b <= 0 then invalid_arg "Intmath.floor_div: non-positive divisor";
  let q = a / b in
  if a mod b < 0 then q - 1 else q

let ceil_div a b =
  if b <= 0 then invalid_arg "Intmath.ceil_div: non-positive divisor";
  let q = a / b in
  if a mod b > 0 then q + 1 else q

let floor_log2 n =
  if n < 1 then invalid_arg "Intmath.floor_log2: n must be >= 1";
  let rec go k p = if p * 2 > n || p * 2 <= 0 then k else go (k + 1) (p * 2) in
  go 0 1

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let mix64 x =
  (* splitmix64's finalizer (Steele, Lea & Flood 2014), over Int64 because
     the multiplier constants do not fit OCaml's 63-bit int. The result is
     masked to 62 bits so it is always a non-negative [int]. *)
  let open Int64 in
  let z = of_int x in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3fffffffffffffffL)

let sum = List.fold_left ( + ) 0

let max_list = function
  | [] -> invalid_arg "Intmath.max_list: empty list"
  | x :: rest -> List.fold_left max x rest

let min_list = function
  | [] -> invalid_arg "Intmath.min_list: empty list"
  | x :: rest -> List.fold_left min x rest
