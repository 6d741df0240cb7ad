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
   bytes identically. The 64-bit load feeds the SWAR lane kernel below,
   which consumes eight source bytes per load. *)
external unsafe_get16 : bytes -> int -> int = "%caml_bytes_get16u"
external unsafe_set16 : bytes -> int -> int -> unit = "%caml_bytes_set16u"
external unsafe_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"

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

(* SWAR lane tables: for a group of up to four matrix rows, [tabs.(j)] is
   a 256-entry int array whose entry [b] packs the four products
   [rows.(r).(j) * b] into byte lanes [r] of one native int. The kernel
   then reads eight source bytes per [unsafe_get64] load and, per
   coefficient, does one table lookup per source byte that accumulates
   into {e all} rows of the group at once via a single XOR-fold — the
   per-output-byte cost is [k/4] lookups for a 4-row group, against [k/2]
   (from 128 KiB tables that overflow L1) for the retired wide-table
   grouped kernels. Zero coefficients are not skipped: their lane is
   all-zero and costs nothing extra, and dispersal matrices have none.

   A [lanes] value is immutable after construction, so it is safe to
   build once and share across domains (publish it through an [Atomic]
   or build it before spawning). *)

type lanes = { width : int; group : int; tabs : int array array }

let lanes rows =
  let group = Array.length rows in
  if group < 1 || group > 4 then invalid_arg "Gf256.lanes: need 1 to 4 rows";
  let width = Array.length rows.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> width then
        invalid_arg "Gf256.lanes: row widths disagree")
    rows;
  let tabs =
    Array.init width (fun j ->
        let t = Array.make 256 0 in
        for lane = 0 to group - 1 do
          let base = (rows.(lane).(j) land 0xff) lsl 8 in
          let sh = lane * 8 in
          for b = 0 to 255 do
            t.(b) <-
              t.(b)
              lor (Char.code (Bytes.unsafe_get mul_tab (base lor b)) lsl sh)
          done
        done;
        t)
  in
  { width; group; tabs }

(* The accumulators are local refs of the unit loop, which the compiler
   keeps in registers, and every store goes through one loop over the
   [g] destinations. Keep both inline: without flambda a function that
   contains a loop is never inlined, so refs passed to such a helper are
   boxed on every 8-byte unit, as is any per-unit closure — 16 to 29
   words per unit, against none here. *)
let encode_lanes l ~dsts ~src ~stride ~pos ~len =
  let g = Array.length dsts in
  if g < 1 || g > l.group then
    invalid_arg "Gf256.encode_lanes: need 1 to lanes-group destinations";
  if pos < 0 || len < 0 then
    invalid_arg "Gf256.encode_lanes: negative pos or len";
  for r = 0 to g - 1 do
    if Bytes.length dsts.(r) < pos + len then
      invalid_arg "Gf256.encode_lanes: dst shorter than pos + len"
  done;
  let k = l.width in
  if k > 0 then begin
    if stride < 0 then invalid_arg "Gf256.encode_lanes: negative stride";
    if Bytes.length src < ((k - 1) * stride) + pos + len then
      invalid_arg "Gf256.encode_lanes: src too short"
  end;
  let tabs = l.tabs in
  let units = len / 8 in
  for u = 0 to units - 1 do
    let off = pos + (8 * u) in
    (* Coefficient [j]'s lane table folded over the eight source bytes at
       [off]: row lanes for bytes 0..3 land in [a0..a3], for bytes 4..7
       in [b0..b3]. Two quartets rather than one 64-bit packing: OCaml
       ints are 63-bit, so packing the high half with [lsl 32] would drop
       lane 4's top bit. *)
    let a0 = ref 0 and a1 = ref 0 and a2 = ref 0 and a3 = ref 0 in
    let b0 = ref 0 and b1 = ref 0 and b2 = ref 0 and b3 = ref 0 in
    for j = 0 to k - 1 do
      let x = unsafe_get64 src ((j * stride) + off) in
      let xl = Int64.to_int x land 0xffffffff in
      let xh = Int64.to_int (Int64.shift_right_logical x 32) land 0xffffffff in
      let t = Array.unsafe_get tabs j in
      a0 := !a0 lxor Array.unsafe_get t (xl land 0xff);
      a1 := !a1 lxor Array.unsafe_get t ((xl lsr 8) land 0xff);
      a2 := !a2 lxor Array.unsafe_get t ((xl lsr 16) land 0xff);
      a3 := !a3 lxor Array.unsafe_get t (xl lsr 24);
      b0 := !b0 lxor Array.unsafe_get t (xh land 0xff);
      b1 := !b1 lxor Array.unsafe_get t ((xh lsr 8) land 0xff);
      b2 := !b2 lxor Array.unsafe_get t ((xh lsr 16) land 0xff);
      b3 := !b3 lxor Array.unsafe_get t (xh lsr 24)
    done;
    let a0 = !a0 and a1 = !a1 and a2 = !a2 and a3 = !a3 in
    let b0 = !b0 and b1 = !b1 and b2 = !b2 and b3 = !b3 in
    for r = 0 to g - 1 do
      let sh = 8 * r in
      let d = Array.unsafe_get dsts r in
      unsafe_set16 d off
        (((a0 lsr sh) land 0xff) lor (((a1 lsr sh) land 0xff) lsl 8));
      unsafe_set16 d (off + 2)
        (((a2 lsr sh) land 0xff) lor (((a3 lsr sh) land 0xff) lsl 8));
      unsafe_set16 d (off + 4)
        (((b0 lsr sh) land 0xff) lor (((b1 lsr sh) land 0xff) lsl 8));
      unsafe_set16 d (off + 6)
        (((b2 lsr sh) land 0xff) lor (((b3 lsr sh) land 0xff) lsl 8))
    done
  done;
  (* Scalar tail for the 0..7 bytes past the last full 8-byte unit. *)
  for i = pos + (8 * units) to pos + len - 1 do
    let acc = ref 0 in
    for j = 0 to k - 1 do
      let x = Char.code (Bytes.unsafe_get src ((j * stride) + i)) in
      acc := !acc lxor Array.unsafe_get (Array.unsafe_get tabs j) x
    done;
    let acc = !acc in
    for r = 0 to g - 1 do
      Bytes.unsafe_set dsts.(r) i (Char.unsafe_chr ((acc lsr (8 * r)) land 0xff))
    done
  done

let pow x k =
  if k < 0 then invalid_arg "Gf256.pow: negative exponent";
  let x = x land 0xff in
  if x = 0 then (if k = 0 then 1 else 0)
  else exp (log_table.(x) * k)
