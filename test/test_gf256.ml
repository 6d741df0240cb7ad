module Gf = Pindisk_gf256.Gf256
module Matrix = Pindisk_gf256.Matrix

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Field basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_add_is_xor () =
  check_int "0x53 + 0xCA" (0x53 lxor 0xca) (Gf.add 0x53 0xca);
  check_int "x + x = 0" 0 (Gf.add 0x7f 0x7f);
  check_int "x + 0 = x" 0x42 (Gf.add 0x42 0)

let test_mul_known () =
  (* Classic AES-field example: 0x53 * 0xCA = 0x01. *)
  check_int "0x53 * 0xCA = 1" 0x01 (Gf.mul 0x53 0xca);
  check_int "x * 0 = 0" 0 (Gf.mul 0x42 0);
  check_int "x * 1 = x" 0x42 (Gf.mul 0x42 1);
  check_int "2 * 0x80" 0x1b (Gf.mul 2 0x80)

let test_inverse () =
  for x = 1 to 255 do
    check_int (Printf.sprintf "x * inv x (x=%d)" x) 1 (Gf.mul x (Gf.inv x))
  done;
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Gf.inv 0))

let test_div () =
  check_int "div self" 1 (Gf.div 0xab 0xab);
  check_int "div by one" 0xab (Gf.div 0xab 1);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Gf.div 1 0))

let test_exp_log () =
  check_int "exp 0" 1 (Gf.exp 0);
  check_int "exp 255 wraps" 1 (Gf.exp 255);
  check_int "exp negative wraps" (Gf.exp 254) (Gf.exp (-1));
  for x = 1 to 255 do
    check_int (Printf.sprintf "exp (log %d)" x) x (Gf.exp (Gf.log x))
  done;
  Alcotest.check_raises "log 0" (Invalid_argument "Gf256.log: zero has no discrete log")
    (fun () -> ignore (Gf.log 0))

let test_generator_order () =
  (* 3 generates the full multiplicative group: exp must be injective on
     [0, 255). *)
  let seen = Array.make 256 false in
  for k = 0 to 254 do
    let v = Gf.exp k in
    Alcotest.(check bool) "not seen twice" false seen.(v);
    seen.(v) <- true
  done

let test_pow () =
  check_int "pow 0 0" 1 (Gf.pow 0 0);
  check_int "pow 0 5" 0 (Gf.pow 0 5);
  check_int "pow x 1" 0x57 (Gf.pow 0x57 1);
  check_int "pow matches repeated mul" (Gf.mul (Gf.mul 7 7) 7) (Gf.pow 7 3)

(* qcheck field axioms *)

let elt = QCheck2.Gen.int_range 0 255

let prop name count gen f = QCheck2.Test.make ~name ~count gen f

let field_props =
  [
    prop "mul commutative" 1000 QCheck2.Gen.(pair elt elt) (fun (a, b) ->
        Gf.mul a b = Gf.mul b a);
    prop "mul associative" 1000 QCheck2.Gen.(triple elt elt elt) (fun (a, b, c) ->
        Gf.mul (Gf.mul a b) c = Gf.mul a (Gf.mul b c));
    prop "distributivity" 1000 QCheck2.Gen.(triple elt elt elt) (fun (a, b, c) ->
        Gf.mul a (Gf.add b c) = Gf.add (Gf.mul a b) (Gf.mul a c));
    prop "Fermat: x^255 = 1 for x <> 0" 300 elt (fun x ->
        x = 0 || Gf.pow x 255 = 1);
    prop "Frobenius: (x + y)^2 = x^2 + y^2" 1000 QCheck2.Gen.(pair elt elt)
      (fun (x, y) -> Gf.pow (Gf.add x y) 2 = Gf.add (Gf.pow x 2) (Gf.pow y 2));
    prop "pow homomorphism: x^(a+b) = x^a * x^b" 500
      QCheck2.Gen.(triple elt (int_range 0 30) (int_range 0 30))
      (fun (x, a, b) -> Gf.pow x (a + b) = Gf.mul (Gf.pow x a) (Gf.pow x b));
    prop "div is mul by inverse" 1000 QCheck2.Gen.(pair elt (int_range 1 255))
      (fun (a, b) -> Gf.div a b = Gf.mul a (Gf.inv b));
    prop "mul agrees with slow carry-less model" 1000 QCheck2.Gen.(pair elt elt)
      (fun (a, b) ->
        (* Recompute via shift-and-xor, independent of the tables. *)
        let slow a b =
          let rec go acc a b =
            if b = 0 then acc
            else
              let acc = if b land 1 = 1 then acc lxor a else acc in
              let a = a lsl 1 in
              let a = if a land 0x100 <> 0 then a lxor 0x11b else a in
              go acc a (b lsr 1)
          in
          go 0 a b
        in
        Gf.mul a b = slow a b);
  ]

(* ------------------------------------------------------------------ *)
(* Bulk kernels                                                       *)
(* ------------------------------------------------------------------ *)

(* Reference semantics, one scalar mul at a time. *)
let ref_axpy ~acc ~coeff ~src =
  Bytes.mapi
    (fun i a -> Char.chr (Char.code a lxor Gf.mul coeff (Char.code (Bytes.get src i))))
    acc

let ref_row ~coeffs ~srcs ~len =
  Bytes.init len (fun i ->
      Array.to_list coeffs
      |> List.mapi (fun j c -> Gf.mul c (Char.code (Bytes.get srcs.(j) i)))
      |> List.fold_left ( lxor ) 0 |> Char.chr)

let rand_bytes rng len = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))

(* Every entry of the kernels' flattened multiplication table, read
   through [mul_into] over all 256 source bytes. *)
let test_mul_table () =
  let all = Bytes.init 256 Char.chr in
  for c = 0 to 255 do
    let tab = Bytes.create 256 in
    Gf.mul_into ~dst:tab ~coeff:c ~src:all;
    for x = 0 to 255 do
      check_int
        (Printf.sprintf "tab.(%d).(%d)" c x)
        (Gf.mul c x)
        (Char.code (Bytes.get tab x))
    done
  done

let test_axpy_matches_reference () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun len ->
      List.iter
        (fun coeff ->
          let src = rand_bytes rng len in
          let acc = rand_bytes rng len in
          let expect = ref_axpy ~acc ~coeff ~src in
          Gf.axpy ~acc ~coeff ~src;
          Alcotest.(check bool)
            (Printf.sprintf "axpy len=%d coeff=%d" len coeff)
            true (Bytes.equal acc expect))
        [ 0; 1; 2; 0x53; 255 ])
    [ 0; 1; 7; 64; 257 ];
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Gf256.axpy: length mismatch") (fun () ->
      Gf.axpy ~acc:(Bytes.create 3) ~coeff:1 ~src:(Bytes.create 4))

let test_mul_into_matches_reference () =
  let rng = Random.State.make [| 8 |] in
  List.iter
    (fun coeff ->
      let src = rand_bytes rng 129 in
      let dst = rand_bytes rng 129 in
      Gf.mul_into ~dst ~coeff ~src;
      Bytes.iteri
        (fun i b ->
          check_int
            (Printf.sprintf "mul_into coeff=%d byte %d" coeff i)
            (Gf.mul coeff (Char.code (Bytes.get src i)))
            (Char.code b))
        dst)
    [ 0; 1; 0xca; 255 ];
  (* in-place: dst == src *)
  let b = rand_bytes rng 33 in
  let copy = Bytes.copy b in
  Gf.mul_into ~dst:b ~coeff:3 ~src:b;
  Alcotest.(check bool) "in place" true
    (Bytes.equal b (ref_row ~coeffs:[| 3 |] ~srcs:[| copy |] ~len:33))

let test_encode_row_matches_reference () =
  let rng = Random.State.make [| 9 |] in
  List.iter
    (fun len ->
      List.iter
        (fun k ->
          let srcs = Array.init k (fun _ -> rand_bytes rng len) in
          let coeffs = Array.init k (fun _ -> Random.State.int rng 256) in
          if k > 1 then coeffs.(1) <- 0;
          (* exercise the zero-coefficient path *)
          let dst = rand_bytes rng len in
          Gf.encode_row ~dst ~coeffs ~srcs;
          Alcotest.(check bool)
            (Printf.sprintf "encode_row len=%d k=%d" len k)
            true
            (Bytes.equal dst (ref_row ~coeffs ~srcs ~len)))
        [ 1; 2; 5; 8 ])
    [ 0; 1; 2; 63; 64; 65 ];
  (* all-zero coefficients blank the destination *)
  let dst = Bytes.make 9 'x' in
  Gf.encode_row ~dst ~coeffs:[| 0; 0 |]
    ~srcs:[| Bytes.make 9 'a'; Bytes.make 9 'b' |];
  Alcotest.(check bool) "zero row blanks" true (Bytes.equal dst (Bytes.make 9 '\000'));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Gf256.encode_row: arity mismatch") (fun () ->
      Gf.encode_row ~dst ~coeffs:[| 1 |] ~srcs:[||])

let test_ensure_tables () =
  (* Must be callable on any coefficients, repeatedly, without changing
     kernel results. *)
  Gf.ensure_tables [| 0; 1; 254; 255 |];
  Gf.ensure_tables [| 0; 1; 254; 255 |];
  let src = Bytes.init 10 (fun i -> Char.chr (i * 25)) in
  let dst = Bytes.create 10 in
  Gf.encode_row ~dst ~coeffs:[| 255 |] ~srcs:[| src |];
  Alcotest.(check bool) "post ensure_tables" true
    (Bytes.equal dst (ref_row ~coeffs:[| 255 |] ~srcs:[| src |] ~len:10))

let test_wide_tables_build_once_under_race () =
  (* Eight domains racing to first-use every coefficient: one-shot CAS
     publication means each of the 256 wide tables is built exactly once
     process-wide, no matter who wins — so after the race the cumulative
     build counter reads exactly 256 (tables built by earlier tests
     included; duplicates anywhere would push it past). *)
  let all = Array.init 256 (fun c -> c) in
  let domains =
    Array.init 7 (fun _ -> Domain.spawn (fun () -> Gf.ensure_tables all))
  in
  Gf.ensure_tables all;
  Array.iter Domain.join domains;
  check_int "every table built exactly once" 256 (Gf.wide_table_builds ());
  (* and the published tables are the real ones *)
  let src = Bytes.init 257 (fun i -> Char.chr (i * 31 land 0xff)) in
  let dst = Bytes.create 257 in
  Gf.encode_row ~dst ~coeffs:[| 0x8e |] ~srcs:[| src |];
  Alcotest.(check bool) "post-race table correct" true
    (Bytes.equal dst (ref_row ~coeffs:[| 0x8e |] ~srcs:[| src |] ~len:257))

(* Scalar reference for [Gf.encode]: source [k] is [srcs.(k)] read from
   [offs.(k) + pos]. *)
let ref_encode ~coeffs ~srcs ~offs ~pos ~len =
  let windows = Array.mapi (fun k b -> Bytes.sub b (offs.(k) + pos) len) srcs in
  ref_row ~coeffs ~srcs:windows ~len

let test_encode_windows_and_offsets () =
  let rng = Random.State.make [| 11 |] in
  let k = 5 and len = 100 in
  let stride = len + 3 in
  (* Sources 0..3 in place in one buffer, source 4 in a buffer of its
     own at an odd offset. *)
  let shared = rand_bytes rng (4 * stride) and own = rand_bytes rng (len + 7) in
  let srcs = [| shared; shared; shared; shared; own |] in
  let offs = [| 0; stride; 2 * stride; 3 * stride; 7 |] in
  let coeffs = [| 0x80; 0xff; 1; 0; 0x53 |] in
  let sc = Gf.schedule coeffs in
  let expect = ref_encode ~coeffs ~srcs ~offs ~pos:0 ~len in
  (* Disjoint [pos, len) windows — deliberately unaligned — written at a
     destination offset must compose to exactly the full-width result
     and leave the destination's other bytes alone. *)
  let dst = Bytes.make (len + 10) 'x' in
  List.iter
    (fun (pos, wlen) ->
      Gf.encode sc ~srcs ~offs ~pos ~dst ~dst_pos:(5 + pos) ~len:wlen)
    [ (0, 13); (13, 1); (14, 57); (71, 29) ];
  Alcotest.(check bool) "windows compose" true
    (Bytes.equal (Bytes.sub dst 5 len) expect);
  Alcotest.(check string) "outside untouched" "xxxxxxxxxx"
    (Bytes.sub_string dst 0 5 ^ Bytes.sub_string dst (5 + len) 5);
  (* An all-zero row blanks its window. *)
  let z = Bytes.make len 'x' in
  Gf.encode (Gf.schedule (Array.make k 0)) ~srcs ~offs ~pos:0 ~dst:z ~dst_pos:0
    ~len;
  Alcotest.(check bool) "zero row blanks" true (Bytes.equal z (Bytes.make len '\000'));
  Alcotest.check_raises "arity"
    (Invalid_argument "Gf256.encode: need one source and offset per coefficient")
    (fun () ->
      Gf.encode (Gf.schedule [| 1; 2 |]) ~srcs:[| own |] ~offs:[| 0 |] ~pos:0
        ~dst:z ~dst_pos:0 ~len:4);
  Alcotest.check_raises "window past dst"
    (Invalid_argument "Gf256.encode: window outside dst") (fun () ->
      Gf.encode (Gf.schedule [| 1 |]) ~srcs:[| own |] ~offs:[| 0 |] ~pos:0
        ~dst:(Bytes.create 4) ~dst_pos:2 ~len:3);
  Alcotest.check_raises "window past a source"
    (Invalid_argument "Gf256.encode: window outside a source") (fun () ->
      Gf.encode (Gf.schedule [| 1; 1 |]) ~srcs:[| own; shared |]
        ~offs:[| 0; (4 * stride) - 3 |] ~pos:0 ~dst:z ~dst_pos:0 ~len:4)

(* The kernel keeps its four accumulators unboxed in registers, so a
   bulk window allocates nothing per word: the whole 64 KiB call stays
   under a fixed handful of minor words, for any row width. *)
let test_encode_allocation_free () =
  let len = 65536 in
  List.iter
    (fun k ->
      let src = Bytes.init (k * len) (fun i -> Char.chr ((i * 131) land 0xff)) in
      let sc = Gf.schedule (Array.init k (fun j -> ((j * 37) + 0xff) land 0xff)) in
      let srcs = Array.make k src and offs = Array.init k (fun j -> j * len) in
      let dst = Bytes.create len in
      Gf.encode sc ~srcs ~offs ~pos:0 ~dst ~dst_pos:0 ~len;
      let before = Gc.minor_words () in
      Gf.encode sc ~srcs ~offs ~pos:0 ~dst ~dst_pos:0 ~len;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "k = %d: %.0f minor words < 64" k words)
        true (words < 64.))
    [ 1; 2; 4; 8 ]

let kernel_props =
  let gen =
    QCheck2.Gen.(
      pair (frequency [ (2, int_range 0 40); (3, int_range 0 200) ])
        (int_bound 1_000_000))
  in
  [
    (* Adversarial shapes for the row kernel: windows whose length
       leaves a tail shorter than a word and shorter than the kernel's
       32-byte step, unaligned offsets, sources sharing one buffer or
       each in its own, zero, one and systematic (unit) rows, and the
       coefficients 0x80 and 0xff that exercise the xtime reduction on
       every level. Bytes outside the window must be untouched. *)
    prop "row kernel == scalar reference on adversarial shapes" 300 gen
      (fun (len, seed) ->
        let rng = Random.State.make [| seed; 77 |] in
        let k = Random.State.int rng 7 in
        let pos = Random.State.int rng (len + 1) in
        let wlen = Random.State.int rng (len - pos + 1) in
        let shared = Random.State.bool rng in
        let stride = len + Random.State.int rng 7 in
        let buf = rand_bytes rng (max 1 (k * stride)) in
        let srcs, offs =
          if shared then (Array.make k buf, Array.init k (fun j -> j * stride))
          else
            let pad = Array.init k (fun _ -> Random.State.int rng 9) in
            ( Array.init k (fun j -> rand_bytes rng (pad.(j) + len)),
              pad )
        in
        let unit = Random.State.int rng (max 1 k) in
        let coeffs =
          Array.init k (fun j ->
              match Random.State.int rng 8 with
              | 0 -> 0
              | 1 -> 1
              | 2 -> if j = unit then 1 else 0
              | 3 -> 0x80
              | 4 -> 0xff
              | _ -> Random.State.int rng 256)
        in
        let dst_pos = Random.State.int rng 5 in
        let dst = rand_bytes rng (dst_pos + len) in
        let before = Bytes.copy dst in
        Gf.encode (Gf.schedule coeffs) ~srcs ~offs ~pos ~dst ~dst_pos ~len:wlen;
        let expect = ref_encode ~coeffs ~srcs ~offs ~pos ~len:wlen in
        let ok = ref true in
        for i = 0 to dst_pos + len - 1 do
          let want =
            if i >= dst_pos && i < dst_pos + wlen then Bytes.get expect (i - dst_pos)
            else Bytes.get before i
          in
          if Bytes.get dst i <> want then ok := false
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Matrices                                                           *)
(* ------------------------------------------------------------------ *)

let test_identity () =
  let i3 = Matrix.identity 3 in
  let m = Matrix.create ~rows:3 ~cols:3 (fun i j -> (i * 3) + j + 1) in
  Alcotest.(check bool) "I * M = M" true (Matrix.equal (Matrix.mul i3 m) m);
  Alcotest.(check bool) "M * I = M" true (Matrix.equal (Matrix.mul m i3) m)

let test_invert_identity () =
  match Matrix.invert (Matrix.identity 4) with
  | Some inv -> Alcotest.(check bool) "inv I = I" true (Matrix.equal inv (Matrix.identity 4))
  | None -> Alcotest.fail "identity reported singular"

let test_singular () =
  let m = Matrix.create ~rows:2 ~cols:2 (fun _ _ -> 5) in
  Alcotest.(check bool) "all-equal matrix singular" true (Matrix.invert m = None);
  let z = Matrix.create ~rows:3 ~cols:3 (fun _ _ -> 0) in
  Alcotest.(check bool) "zero matrix singular" true (Matrix.invert z = None)

let test_vandermonde_rows_invertible () =
  let m = 5 in
  let v = Matrix.vandermonde ~rows:40 ~cols:m in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    (* Pick m distinct random rows; the square submatrix must invert. *)
    let rows = Array.init 40 (fun i -> i) in
    for i = 39 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = rows.(i) in
      rows.(i) <- rows.(j);
      rows.(j) <- t
    done;
    let sub = Matrix.select_rows v (Array.sub rows 0 m) in
    match Matrix.invert sub with
    | Some inv ->
        Alcotest.(check bool) "inv * sub = I" true
          (Matrix.equal (Matrix.mul inv sub) (Matrix.identity m))
    | None -> Alcotest.fail "Vandermonde submatrix reported singular"
  done

let test_mul_vec () =
  let m = Matrix.create ~rows:2 ~cols:2 (fun i j -> if i = j then 1 else 0) in
  Alcotest.(check (array int)) "identity mul_vec" [| 10; 20 |] (Matrix.mul_vec m [| 10; 20 |])

let prop_invert_roundtrip =
  QCheck2.Test.make ~name:"random matrix: inv m * m = I when invertible" ~count:200
    QCheck2.Gen.(pair (int_range 1 6) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let m = Matrix.create ~rows:n ~cols:n (fun _ _ -> Random.State.int rng 256) in
      match Matrix.invert m with
      | None -> true (* singular matrices are legitimately rejected *)
      | Some inv ->
          Matrix.equal (Matrix.mul inv m) (Matrix.identity n)
          && Matrix.equal (Matrix.mul m inv) (Matrix.identity n))

let () =
  Alcotest.run "gf256"
    [
      ( "field",
        [
          Alcotest.test_case "add is xor" `Quick test_add_is_xor;
          Alcotest.test_case "mul known values" `Quick test_mul_known;
          Alcotest.test_case "all inverses" `Quick test_inverse;
          Alcotest.test_case "div" `Quick test_div;
          Alcotest.test_case "exp/log" `Quick test_exp_log;
          Alcotest.test_case "generator order" `Quick test_generator_order;
          Alcotest.test_case "pow" `Quick test_pow;
        ] );
      ("field-properties", List.map QCheck_alcotest.to_alcotest field_props);
      ( "kernels",
        [
          Alcotest.test_case "mul_table" `Quick test_mul_table;
          Alcotest.test_case "axpy matches reference" `Quick
            test_axpy_matches_reference;
          Alcotest.test_case "mul_into matches reference" `Quick
            test_mul_into_matches_reference;
          Alcotest.test_case "encode_row matches reference" `Quick
            test_encode_row_matches_reference;
          Alcotest.test_case "ensure_tables" `Quick test_ensure_tables;
          Alcotest.test_case "wide tables build once under race" `Quick
            test_wide_tables_build_once_under_race;
          Alcotest.test_case "row kernel windows and offsets" `Quick
            test_encode_windows_and_offsets;
          Alcotest.test_case "row kernel allocates nothing" `Quick
            test_encode_allocation_free;
        ] );
      ("kernel-properties", List.map QCheck_alcotest.to_alcotest kernel_props);
      ( "matrix",
        [
          Alcotest.test_case "identity laws" `Quick test_identity;
          Alcotest.test_case "invert identity" `Quick test_invert_identity;
          Alcotest.test_case "singular detection" `Quick test_singular;
          Alcotest.test_case "vandermonde rows invertible" `Quick
            test_vandermonde_rows_invertible;
          Alcotest.test_case "mul_vec" `Quick test_mul_vec;
        ] );
      ( "matrix-properties",
        List.map QCheck_alcotest.to_alcotest [ prop_invert_roundtrip ] );
    ]
