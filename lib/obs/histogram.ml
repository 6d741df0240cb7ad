(* Log-bucketed histograms: two buckets per octave, so consecutive bucket
   boundaries are (integer approximations of) powers of sqrt 2. Bucket
   boundaries are computed with integer arithmetic only — an integer
   square root for the half-octave split — so bucketing is deterministic
   across platforms and float rounding modes.

   Layout (indices into [counts]):
     bucket 0:        v <= 0
     bucket 1 + 2e:   2^e     <= v < mid(e)      (empty when mid(e) = 2^e)
     bucket 2 + 2e:   mid(e)  <= v < 2^(e+1)
   for e in [0, 61]; mid(e) = floor(2^e * sqrt 2). OCaml's native int is
   63-bit, so e = 61 covers max_int and no overflow bucket is needed. *)

let max_exp = 61
let bucket_count = 3 + (2 * max_exp) (* 0 plus two per octave *)

let isqrt n =
  if n < 0 then invalid_arg "Histogram.isqrt: negative"
  else if n = 0 then 0
  else begin
    let x = ref n and y = ref ((n / 2) + 1) in
    while !y < !x do
      x := !y;
      y := (!y + (n / !y)) / 2
    done;
    !x
  end

(* mid.(e) = floor(2^e * sqrt 2) for e <= 30, computed exactly as
   isqrt(2^(2e+1)); shifted up beyond that (still monotone, still within
   one unit of the true half-octave point relative to the octave). *)
let mid =
  Array.init (max_exp + 1) (fun e ->
      if e <= 30 then isqrt (1 lsl ((2 * e) + 1))
      else isqrt (1 lsl 61) lsl (e - 30))

let bucket_of v =
  if v <= 0 then 0
  else begin
    let e = ref 0 and x = ref v in
    while !x > 1 do
      x := !x lsr 1;
      incr e
    done;
    if v < mid.(!e) then 1 + (2 * !e) else 2 + (2 * !e)
  end

(* Inclusive [lo, hi] range of each bucket. Bucket [1 + 2e] is empty
   (hi < lo) when mid(e) = 2^e, which happens for small e; [bucket_of]
   never returns an empty bucket. *)
let bucket_bounds b =
  if b < 0 || b >= bucket_count then invalid_arg "Histogram.bucket_bounds";
  if b = 0 then (min_int, 0)
  else begin
    let e = (b - 1) / 2 in
    let lo = 1 lsl e and m = mid.(e) in
    if (b - 1) mod 2 = 0 then (lo, m - 1)
    else (m, (if e = max_exp then max_int else (1 lsl (e + 1)) - 1))
  end

type t = {
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  counts : int array;
}

let create () =
  { count = 0; sum = 0; vmin = 0; vmax = 0; counts = Array.make bucket_count 0 }

let observe_n t v n =
  if n < 0 then invalid_arg "Histogram.observe_n: negative count";
  if n > 0 then begin
    if t.count = 0 then begin
      t.vmin <- v;
      t.vmax <- v
    end
    else begin
      if v < t.vmin then t.vmin <- v;
      if v > t.vmax then t.vmax <- v
    end;
    t.count <- t.count + n;
    t.sum <- t.sum + (v * n);
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + n
  end

let observe t v = observe_n t v 1

let count t = t.count
let sum t = t.sum
let min_value t = t.vmin
let max_value t = t.vmax

let buckets t =
  let acc = ref [] in
  for b = bucket_count - 1 downto 0 do
    if t.counts.(b) > 0 then acc := (b, t.counts.(b)) :: !acc
  done;
  !acc

let reset t =
  t.count <- 0;
  t.sum <- 0;
  t.vmin <- 0;
  t.vmax <- 0;
  Array.fill t.counts 0 bucket_count 0
