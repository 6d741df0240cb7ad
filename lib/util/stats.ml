(* Observations are stored run-length encoded: parallel [values]/[weights]
   arrays where entry [i] stands for [weights.(i)] copies of
   [values.(i)]. [add] appends weight-1 entries, so the unweighted API
   behaves exactly as it always did (same float accumulation order);
   [add_weighted] is what lets the cohort engine account for millions of
   statistically identical clients in O(1) memory per distinct value. *)
type t = {
  mutable values : float array;
  mutable weights : int array;
  mutable len : int; (* stored entries *)
  mutable count : int; (* total weight across entries *)
  mutable sum : float;
  mutable sorted : bool;
}

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  {
    values = Array.make capacity 0.0;
    weights = Array.make capacity 0;
    len = 0;
    count = 0;
    sum = 0.0;
    sorted = true;
  }

let push t x w =
  if t.len = Array.length t.values then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.values 0 bigger 0 t.len;
    t.values <- bigger;
    let bigger_w = Array.make (2 * t.len) 0 in
    Array.blit t.weights 0 bigger_w 0 t.len;
    t.weights <- bigger_w
  end;
  t.values.(t.len) <- x;
  t.weights.(t.len) <- w;
  t.len <- t.len + 1;
  t.count <- t.count + w;
  t.sorted <- false

let add t x =
  push t x 1;
  t.sum <- t.sum +. x

let absorb t other =
  if t == other then invalid_arg "Stats.absorb: cannot absorb into itself";
  for i = 0 to other.len - 1 do
    let x = other.values.(i) and w = other.weights.(i) in
    if w > 0 then begin
      push t x w;
      t.sum <- t.sum +. (if w = 1 then x else float_of_int w *. x)
    end
  done

let add_weighted t x w =
  if w < 0 then invalid_arg "Stats.add_weighted: negative weight";
  if w > 0 then begin
    push t x w;
    t.sum <- t.sum +. (if w = 1 then x else float_of_int w *. x)
  end

let add_int t x = add t (float_of_int x)
let count t = t.count
let entries t = t.len
let total t = t.sum
let mean t = if t.count = 0 then Float.nan else t.sum /. float_of_int t.count

let variance t =
  (* Two-pass over the stored values: the streaming [sum_sq/n - mean^2]
     formula cancels catastrophically for large-offset data (it can even
     go negative); the centered sum of squares cannot. *)
  if t.count = 0 then Float.nan
  else begin
    let m = mean t in
    let acc = ref 0.0 in
    for i = 0 to t.len - 1 do
      let d = t.values.(i) -. m in
      let sq = d *. d in
      acc := !acc +. (if t.weights.(i) = 1 then sq else float_of_int t.weights.(i) *. sq)
    done;
    !acc /. float_of_int t.count
  end

let stddev t = sqrt (max 0.0 (variance t))

(* Entries sort by value, then weight: the order [compare] gives the
   (value, weight) pairs. A merge sort of an index array under a
   monomorphic comparator, then one permutation of both arrays, boxes no
   entry. The permutation follows its cycles in place (entry [k] takes
   entry [order.(k)]; a placed index is marked -1), so sorting copies
   neither array. *)
let ensure_sorted t =
  if not t.sorted then begin
    let values = t.values and weights = t.weights in
    let order = Array.init t.len Fun.id in
    Array.stable_sort
      (fun i j ->
        let c = Float.compare values.(i) values.(j) in
        if c <> 0 then c else Int.compare weights.(i) weights.(j))
      order;
    for start = 0 to t.len - 1 do
      if order.(start) >= 0 then begin
        let v = values.(start) and w = weights.(start) in
        let k = ref start in
        while order.(!k) <> start do
          let src = order.(!k) in
          values.(!k) <- values.(src);
          weights.(!k) <- weights.(src);
          order.(!k) <- -1;
          k := src
        done;
        values.(!k) <- v;
        weights.(!k) <- w;
        order.(!k) <- -1
      end
    done;
    t.sorted <- true
  end

let min_value t =
  if t.count = 0 then invalid_arg "Stats.min_value: empty";
  ensure_sorted t;
  t.values.(0)

let max_value t =
  if t.count = 0 then invalid_arg "Stats.max_value: empty";
  ensure_sorted t;
  t.values.(t.len - 1)

(* The k-th (0-based) order statistic of the weighted sample: scan the
   sorted entries accumulating weight. O(len), which the percentile pair
   below amortizes into one scan. *)
let order_statistic t k =
  let rec go i cum =
    let cum = cum + t.weights.(i) in
    if k < cum then t.values.(i) else go (i + 1) cum
  in
  go 0 0

let percentile t p =
  if t.count = 0 then invalid_arg "Stats.percentile: empty";
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg "Stats.percentile: p out of range";
  ensure_sorted t;
  if t.count = 1 then t.values.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (t.count - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (t.count - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (order_statistic t lo *. (1.0 -. frac)) +. (order_statistic t hi *. frac)
  end

let median t = percentile t 50.0

let pp_summary ppf t =
  if t.count = 0 then Format.fprintf ppf "(no observations)"
  else
    Format.fprintf ppf
      "n=%d mean=%.2f sd=%.2f min=%.1f median=%.1f p99=%.1f max=%.1f" t.count
      (mean t) (stddev t) (min_value t) (median t) (percentile t 99.0)
      (max_value t)
