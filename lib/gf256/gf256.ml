type t = int

(* x^8 + x^4 + x^3 + x + 1, the AES reduction polynomial. *)
let poly = 0x11b

(* Carry-less multiply-and-reduce, used only to build the tables. *)
let slow_mul a b =
  let rec go acc a b =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = a lsl 1 in
      let a = if a land 0x100 <> 0 then a lxor poly else a in
      go acc a (b lsr 1)
  in
  go 0 (a land 0xff) (b land 0xff)

(* exp_table.(k) = 3^k for k in [0, 509]; doubled so that
   [exp_table.(log a + log b)] needs no modular reduction. *)
let exp_table = Array.make 510 0

let log_table = Array.make 256 0

let () =
  let x = ref 1 in
  for k = 0 to 254 do
    exp_table.(k) <- !x;
    exp_table.(k + 255) <- !x;
    log_table.(!x) <- k;
    x := slow_mul !x 3
  done

(* The flattened multiplication table: [mul_tab.[c*256 + x] = c * x] for
   every coefficient [c]. 64 KiB, built once at startup, shared by every
   bulk kernel below — one unsafe byte lookup replaces the seed path's
   two bounds-checked array reads plus a zero-test per byte. Read-only
   after initialization, so safe to share across domains. *)
let mul_tab = Bytes.create 65536

let () =
  for c = 0 to 255 do
    let base = c lsl 8 in
    for x = 0 to 255 do
      Bytes.unsafe_set mul_tab (base lor x) (Char.unsafe_chr (slow_mul c x))
    done
  done

(* Unaligned loads/stores, no bounds check — the same compiler
   primitives [Stdlib.Bytes] builds its checked accessors from. Native
   byte order on both ends keeps the wide tables endian-agnostic: a unit
   read from a source buffer and the unit stored in the table transpose
   bytes identically. *)
external unsafe_get16 : bytes -> int -> int = "%caml_bytes_get16u"
external unsafe_set16 : bytes -> int -> int -> unit = "%caml_bytes_set16u"

(* Wide tables: [wide_tabs.(c)] maps every 16-bit source unit [(x0, x1)]
   to the unit [(c*x0, c*x1)], halving the lookups per output byte in the
   single-row kernels. 128 KiB per coefficient, built lazily on first use
   (up to 32 MiB if all 255 nonzero coefficients appear).

   Publication is one-shot: the first caller to CAS the slot from empty
   to the [building] sentinel owns the build and publishes the finished
   table with a plain atomic store; every racing caller spins on the slot
   until the table appears. Concurrent first-use of one coefficient
   therefore builds its table exactly once — [wide_table_builds] counts
   the builds so tests can pin that down — and readers can never observe
   a partially-filled table. *)
let wide_tabs : Bytes.t Atomic.t array =
  Array.init 256 (fun _ -> Atomic.make Bytes.empty)

let building = Bytes.create 0
let builds = Atomic.make 0
let wide_table_builds () = Atomic.get builds

let rec wide_table c =
  let c = c land 0xff in
  let slot = Array.unsafe_get wide_tabs c in
  let t = Atomic.get slot in
  if Bytes.length t <> 0 then t
  else if t == building || not (Atomic.compare_and_set slot Bytes.empty building)
  then begin
    (* Another domain owns the build; wait for publication. *)
    Domain.cpu_relax ();
    wide_table c
  end
  else begin
    Atomic.incr builds;
    let t = Bytes.create 131072 in
    let base = c lsl 8 in
    for x = 0 to 65535 do
      let lo = Char.code (Bytes.unsafe_get mul_tab (base lor (x land 0xff))) in
      let hi = Char.code (Bytes.unsafe_get mul_tab (base lor (x lsr 8))) in
      unsafe_set16 t (2 * x) (lo lor (hi lsl 8))
    done;
    Atomic.set slot t;
    t
  end

let ensure_tables coeffs = Array.iter (fun c -> ignore (wide_table c)) coeffs

let add a b = (a lxor b) land 0xff

let mul a b =
  let a = a land 0xff and b = b land 0xff in
  if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

let inv a =
  let a = a land 0xff in
  if a = 0 then raise Division_by_zero;
  exp_table.(255 - log_table.(a))

let div a b = mul a (inv b)

let exp k =
  let k = ((k mod 255) + 255) mod 255 in
  exp_table.(k)

let log a =
  let a = a land 0xff in
  if a = 0 then invalid_arg "Gf256.log: zero has no discrete log";
  log_table.(a)

let axpy ~acc ~coeff ~src =
  if Bytes.length acc <> Bytes.length src then
    invalid_arg "Gf256.axpy: length mismatch";
  let coeff = coeff land 0xff in
  if coeff <> 0 then begin
    let base = coeff lsl 8 in
    for i = 0 to Bytes.length acc - 1 do
      Bytes.unsafe_set acc i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get acc i)
           lxor Char.code
                  (Bytes.unsafe_get mul_tab
                     (base lor Char.code (Bytes.unsafe_get src i)))))
    done
  end

let mul_into ~dst ~coeff ~src =
  if Bytes.length dst <> Bytes.length src then
    invalid_arg "Gf256.mul_into: length mismatch";
  let coeff = coeff land 0xff in
  if coeff = 0 then Bytes.fill dst 0 (Bytes.length dst) '\000'
  else begin
    let base = coeff lsl 8 in
    for i = 0 to Bytes.length dst - 1 do
      Bytes.unsafe_set dst i
        (Bytes.unsafe_get mul_tab (base lor Char.code (Bytes.unsafe_get src i)))
    done
  end

let encode_row ~dst ~coeffs ~srcs =
  let k = Array.length coeffs in
  if Array.length srcs <> k then invalid_arg "Gf256.encode_row: arity mismatch";
  let n = Bytes.length dst in
  Array.iter
    (fun s ->
      if Bytes.length s <> n then invalid_arg "Gf256.encode_row: length mismatch")
    srcs;
  (* Drop zero coefficients up front so the unit loop is branch-free. *)
  let tabs = Array.make (max 1 k) Bytes.empty in
  let inputs = Array.make (max 1 k) Bytes.empty in
  let live = ref 0 in
  for j = 0 to k - 1 do
    let c = coeffs.(j) land 0xff in
    if c <> 0 then begin
      tabs.(!live) <- wide_table c;
      inputs.(!live) <- srcs.(j);
      incr live
    end
  done;
  let live = !live in
  if live = 0 then Bytes.fill dst 0 n '\000'
  else begin
    (* One fused pass, two bytes per step: each output unit accumulates
       the whole matrix row through the wide tables, so [dst] is written
       once instead of [k] read-modify-write sweeps. *)
    let units = n / 2 in
    for u = 0 to units - 1 do
      let du = 2 * u in
      let acc = ref 0 in
      for j = 0 to live - 1 do
        let x = unsafe_get16 (Array.unsafe_get inputs j) du in
        acc := !acc lxor unsafe_get16 (Array.unsafe_get tabs j) (2 * x)
      done;
      unsafe_set16 dst du !acc
    done;
    if n land 1 = 1 then begin
      let i = n - 1 in
      let acc = ref 0 in
      for j = 0 to live - 1 do
        let x = Char.code (Bytes.unsafe_get (Array.unsafe_get inputs j) i) in
        acc := !acc lxor Char.code (Bytes.unsafe_get (Array.unsafe_get tabs j) (2 * x))
      done;
      Bytes.unsafe_set dst i (Char.unsafe_chr !acc)
    end
  end

let encode_row_strided ~dst ~coeffs ~src ~stride =
  let k = Array.length coeffs in
  let n = Bytes.length dst in
  if stride < n then invalid_arg "Gf256.encode_row_strided: stride < dst length";
  if Bytes.length src < k * stride then
    invalid_arg "Gf256.encode_row_strided: src shorter than coeffs * stride";
  let tabs = Array.make (max 1 k) Bytes.empty in
  let offs = Array.make (max 1 k) 0 in
  let live = ref 0 in
  for j = 0 to k - 1 do
    let c = coeffs.(j) land 0xff in
    if c <> 0 then begin
      tabs.(!live) <- wide_table c;
      offs.(!live) <- j * stride;
      incr live
    end
  done;
  let live = !live in
  if live = 0 then Bytes.fill dst 0 n '\000'
  else begin
    (* Same fused kernel as [encode_row], but source block [j] is read in
       place at offset [j * stride] of one contiguous buffer — dispersal
       needs no per-block extraction copies at all. *)
    let units = n / 2 in
    for u = 0 to units - 1 do
      let du = 2 * u in
      let acc = ref 0 in
      for j = 0 to live - 1 do
        let x = unsafe_get16 src (Array.unsafe_get offs j + du) in
        acc := !acc lxor unsafe_get16 (Array.unsafe_get tabs j) (2 * x)
      done;
      unsafe_set16 dst du !acc
    done;
    if n land 1 = 1 then begin
      let i = n - 1 in
      let acc = ref 0 in
      for j = 0 to live - 1 do
        let x = Char.code (Bytes.unsafe_get src (Array.unsafe_get offs j + i)) in
        acc := !acc lxor Char.code (Bytes.unsafe_get (Array.unsafe_get tabs j) (2 * x))
      done;
      Bytes.unsafe_set dst i (Char.unsafe_chr !acc)
    end
  end

(* The row kernel. With S_b the XOR of the sources whose coefficient has
   bit [b] set, a row [sum_k c_k * src_k] is, by Horner's rule,
   [(..(S_top * x + S_(top-1)) * x + ..) * x + S_0]: a word of eight
   byte lanes costs one lane-wise multiplication by x per level below
   the row's highest set bit, plus one load and XOR per set coefficient
   bit, and reads no table. [steps] lists the levels from that bit
   down, each as its source count followed by the source indices. *)
type schedule = { width : int; levels : int; steps : int array }

let schedule coeffs =
  let width = Array.length coeffs in
  let bits = Array.fold_left (fun acc c -> acc lor (c land 0xff)) 0 coeffs in
  let rec top b =
    if b < 0 || bits land (1 lsl b) <> 0 then b else top (b - 1)
  in
  let levels = top 7 + 1 in
  let rec popcount c = if c = 0 then 0 else 1 + popcount (c land (c - 1)) in
  let set = Array.fold_left (fun n c -> n + popcount (c land 0xff)) 0 coeffs in
  let steps = Array.make (levels + set) 0 in
  let i = ref 0 in
  for b = levels - 1 downto 0 do
    let head = !i in
    incr i;
    Array.iteri
      (fun k c ->
        if c land (1 lsl b) <> 0 then begin
          steps.(!i) <- k;
          incr i
        end)
      coeffs;
    steps.(head) <- !i - head - 1
  done;
  { width; levels; steps }

(* Eight lanes per unaligned, unchecked access; lane-wise arithmetic
   does not care which byte order fills them. *)
external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* x times each of the eight byte lanes: shift every lane left one bit
   and reduce the lanes whose top bit fell out by 0x1b. *)
let[@inline] xtime w =
  Int64.(
    logxor
      (shift_left (logand w 0x7f7f7f7f7f7f7f7fL) 1)
      (mul (shift_right_logical (logand w 0x8080808080808080L) 7) 0x1bL))

(* Four words per step, so that four independent chains hide each
   other's latency. The accumulators are local refs, which the compiler
   keeps unboxed in registers; keep the level loop inline, since without
   flambda a function that contains a loop is never inlined, and refs
   passed to one are boxed on every step. *)
let encode sc ~srcs ~offs ~pos ~dst ~dst_pos ~len =
  if Array.length srcs <> sc.width || Array.length offs <> sc.width then
    invalid_arg "Gf256.encode: need one source and offset per coefficient";
  if pos < 0 || len < 0 || dst_pos < 0 || Bytes.length dst < dst_pos + len then
    invalid_arg "Gf256.encode: window outside dst";
  Array.iteri
    (fun k src ->
      let o = offs.(k) + pos in
      if o < 0 || Bytes.length src < o + len then
        invalid_arg "Gf256.encode: window outside a source")
    srcs;
  let steps = sc.steps and levels = sc.levels in
  let quads = len / 32 in
  for q = 0 to quads - 1 do
    let at = pos + (32 * q) in
    let a0 = ref 0L and a1 = ref 0L and a2 = ref 0L and a3 = ref 0L in
    let i = ref 0 in
    for l = 1 to levels do
      if l > 1 then begin
        a0 := xtime !a0;
        a1 := xtime !a1;
        a2 := xtime !a2;
        a3 := xtime !a3
      end;
      let n = Array.unsafe_get steps !i in
      for e = !i + 1 to !i + n do
        let k = Array.unsafe_get steps e in
        let src = Array.unsafe_get srcs k and o = Array.unsafe_get offs k + at in
        a0 := Int64.logxor !a0 (get64 src o);
        a1 := Int64.logxor !a1 (get64 src (o + 8));
        a2 := Int64.logxor !a2 (get64 src (o + 16));
        a3 := Int64.logxor !a3 (get64 src (o + 24))
      done;
      i := !i + n + 1
    done;
    let d = dst_pos + (32 * q) in
    set64 dst d !a0;
    set64 dst (d + 8) !a1;
    set64 dst (d + 16) !a2;
    set64 dst (d + 24) !a3
  done;
  (* The 0..31 bytes past the last full step, one at a time. *)
  for b = 32 * quads to len - 1 do
    let acc = ref 0 and i = ref 0 in
    for _ = 1 to levels do
      acc := (!acc lsl 1) lxor ((!acc lsr 7) * 0x11b);
      let n = Array.unsafe_get steps !i in
      for e = !i + 1 to !i + n do
        let k = Array.unsafe_get steps e in
        acc :=
          !acc
          lxor Char.code
                 (Bytes.unsafe_get (Array.unsafe_get srcs k)
                    (Array.unsafe_get offs k + pos + b))
      done;
      i := !i + n + 1
    done;
    Bytes.unsafe_set dst (dst_pos + b) (Char.unsafe_chr !acc)
  done

let pow x k =
  if k < 0 then invalid_arg "Gf256.pow: negative exponent";
  let x = x land 0xff in
  if x = 0 then (if k = 0 then 1 else 0)
  else exp (log_table.(x) * k)
