module Gf256 = Pindisk_gf256.Gf256
module Matrix = Pindisk_gf256.Matrix

type outcome = Exhaustive of int | Structural | Failed of int array

let pp_outcome ppf = function
  | Exhaustive k -> Format.fprintf ppf "exhaustive (%d subsets inverted)" k
  | Structural -> Format.fprintf ppf "structural (distinct Vandermonde nodes)"
  | Failed rows ->
      Format.fprintf ppf "FAILED: rows {%a} are singular"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Format.pp_print_int)
        (Array.to_list rows)

(* Row subsets inverted exhaustively before the structural check takes
   over. *)
let budget = 10_000

(* C(n, k), saturating at max_int (n <= 255 here, but stay safe). *)
let binomial n k =
  let k = min k (n - k) in
  if k < 0 then 0
  else
    let acc = ref 1 in
    (try
       for i = 1 to k do
         if !acc > max_int / (n - k + i) then raise Exit;
         acc := !acc * (n - k + i) / i
       done
     with Exit -> acc := max_int);
    !acc

(* Enumerate k-subsets of [0, n) in lexicographic order, stopping at the
   first for which [f subset] is false. *)
let for_all_subsets n k f =
  let idx = Array.init k (fun i -> i) in
  let next () =
    (* advance to the next combination; false when exhausted *)
    let rec bump i =
      if i < 0 then false
      else if idx.(i) < n - k + i then begin
        idx.(i) <- idx.(i) + 1;
        for j = i + 1 to k - 1 do
          idx.(j) <- idx.(j - 1) + 1
        done;
        true
      end
      else bump (i - 1)
    in
    bump (k - 1)
  in
  let rec go count =
    if not (f idx) then Error (Array.copy idx)
    else if next () then go (count + 1)
    else Ok (count + 1)
  in
  go 0

let check_matrix matrix ~m =
  let n = Matrix.rows matrix in
  if m < 1 then Error "m must be >= 1"
  else if Matrix.cols matrix <> m then
    Error "matrix must have exactly m columns"
  else if n < m then Error "need at least m rows"
  else if binomial n m > budget then
    Error
      (Printf.sprintf "C(%d,%d) subsets exceed the exhaustive budget %d" n m
         budget)
  else
    match
      for_all_subsets n m (fun idx ->
          Matrix.invert (Matrix.select_rows matrix idx) <> None)
    with
    | Ok count -> Ok (Exhaustive count)
    | Error rows -> Ok (Failed rows)

let check n ~m =
  if m < 1 then Error "m must be >= 1"
  else if n < m then Error "need n >= m dispersed blocks"
  else if n > 255 then Error "n must be <= 255 over GF(256)"
  else if binomial n m <= budget then
    check_matrix (Matrix.vandermonde ~rows:n ~cols:m) ~m
  else begin
    (* Vandermonde on pairwise distinct nodes: every square submatrix on
       distinct nodes is invertible, so distinctness of x_i = exp i for
       i < n is all the MDS property needs. *)
    let seen = Array.make 256 (-1) in
    let clash = ref None in
    for i = 0 to n - 1 do
      let x = Gf256.exp i in
      if !clash = None then
        if seen.(x) >= 0 then clash := Some [| seen.(x); i |]
        else seen.(x) <- i
    done;
    match !clash with
    | Some rows -> Ok (Failed rows)
    | None -> Ok Structural
  end
