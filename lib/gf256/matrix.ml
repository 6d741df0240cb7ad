type t = { rows : int; cols : int; data : int array }
(* Row-major storage. *)

let create ~rows ~cols f =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: dimensions";
  let data = Array.make (rows * cols) 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j land 0xff
    done
  done;
  { rows; cols; data }

let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.get: out of bounds";
  m.data.((i * m.cols) + j)

let identity n = create ~rows:n ~cols:n (fun i j -> if i = j then 1 else 0)

let vandermonde ~rows ~cols =
  if rows > 255 then invalid_arg "Matrix.vandermonde: at most 255 rows";
  create ~rows ~cols (fun i j -> Gf256.pow (Gf256.exp i) j)

let select_rows m idx =
  create ~rows:(Array.length idx) ~cols:m.cols (fun i j -> get m idx.(i) j)

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  create ~rows:a.rows ~cols:b.cols (fun i j ->
      let acc = ref 0 in
      for k = 0 to a.cols - 1 do
        acc := Gf256.add !acc (Gf256.mul (get a i k) (get b k j))
      done;
      !acc)

let mul_vec m v =
  if Array.length v <> m.cols then invalid_arg "Matrix.mul_vec: dimension";
  Array.init m.rows (fun i ->
      let acc = ref 0 in
      for j = 0 to m.cols - 1 do
        acc := Gf256.add !acc (Gf256.mul (get m i j) v.(j))
      done;
      !acc)

let invert m =
  if m.rows <> m.cols then invalid_arg "Matrix.invert: not square";
  let n = m.rows in
  (* Gauss-Jordan on [a | inv], in place on copies. *)
  let a = Array.copy m.data in
  let inv = Array.make (n * n) 0 in
  for i = 0 to n - 1 do
    inv.((i * n) + i) <- 1
  done;
  let aij i j = a.((i * n) + j) in
  let exception Singular in
  try
    for col = 0 to n - 1 do
      (* Find a pivot row at or below [col]. *)
      let pivot = ref (-1) in
      (try
         for r = col to n - 1 do
           if aij r col <> 0 then begin
             pivot := r;
             raise Exit
           end
         done
       with Exit -> ());
      if !pivot < 0 then raise Singular;
      let p = !pivot in
      if p <> col then
        for j = 0 to n - 1 do
          let t = a.((p * n) + j) in
          a.((p * n) + j) <- a.((col * n) + j);
          a.((col * n) + j) <- t;
          let t = inv.((p * n) + j) in
          inv.((p * n) + j) <- inv.((col * n) + j);
          inv.((col * n) + j) <- t
        done;
      (* Scale the pivot row to make the pivot 1. *)
      let s = Gf256.inv (aij col col) in
      for j = 0 to n - 1 do
        a.((col * n) + j) <- Gf256.mul s a.((col * n) + j);
        inv.((col * n) + j) <- Gf256.mul s inv.((col * n) + j)
      done;
      (* Eliminate the column everywhere else. *)
      for r = 0 to n - 1 do
        if r <> col && aij r col <> 0 then begin
          let f = aij r col in
          for j = 0 to n - 1 do
            a.((r * n) + j) <-
              Gf256.add a.((r * n) + j) (Gf256.mul f a.((col * n) + j));
            inv.((r * n) + j) <-
              Gf256.add inv.((r * n) + j) (Gf256.mul f inv.((col * n) + j))
          done
        end
      done
    done;
    Some { rows = n; cols = n; data = inv }
  with Singular -> None

(* V * (top cols x cols of V)^-1: right-multiplying by an invertible
   matrix preserves "any [cols] rows form an invertible square" (a row
   subset S of the product is [S_V * T^-1], a product of invertibles),
   and turns the top square into the identity — so the systematic prefix
   of a dispersal encodes by memcpy. *)
let systematic ~rows ~cols =
  let v = vandermonde ~rows ~cols in
  let top = select_rows v (Array.init cols (fun i -> i)) in
  match invert top with
  | None -> assert false (* the top square of a Vandermonde is invertible *)
  | Some tinv -> mul v tinv

let equal a b = a.rows = b.rows && a.cols = b.cols && a.data = b.data
