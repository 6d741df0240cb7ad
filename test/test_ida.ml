module Ida = Pindisk_ida.Ida
module Aida = Pindisk_ida.Aida
module Gf256 = Pindisk_gf256.Gf256
module Matrix = Pindisk_gf256.Matrix
module Obs = Pindisk_obs

let bytes_of_string = Bytes.of_string

let check_bytes msg expected actual =
  Alcotest.(check string) msg (Bytes.to_string expected) (Bytes.to_string actual)

(* ------------------------------------------------------------------ *)
(* IDA                                                                *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_all_pieces () =
  let file = bytes_of_string "the quick brown fox jumps over the lazy dog" in
  let ida = Ida.create ~m:5 in
  let pieces = Ida.disperse ida ~n:10 file in
  Alcotest.(check int) "ten pieces" 10 (Array.length pieces);
  let back =
    Ida.reconstruct ida ~length:(Bytes.length file) (Array.to_list pieces)
  in
  check_bytes "roundtrip" file back

let test_roundtrip_any_m_subset () =
  let file = bytes_of_string "pinwheel broadcast disks" in
  let m = 3 in
  let ida = Ida.create ~m in
  let pieces = Array.to_list (Ida.disperse ida ~n:7 file) in
  (* Every 3-subset of the 7 pieces must reconstruct. *)
  let rec subsets k = function
    | [] -> if k = 0 then [ [] ] else []
    | x :: rest ->
        if k = 0 then [ [] ]
        else
          List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
  in
  List.iter
    (fun subset ->
      let back = Ida.reconstruct ida ~length:(Bytes.length file) subset in
      check_bytes "subset reconstructs" file back)
    (subsets m pieces)

let test_too_few_pieces () =
  let ida = Ida.create ~m:4 in
  let pieces = Ida.disperse ida ~n:6 (bytes_of_string "0123456789ab") in
  Alcotest.check_raises "three pieces insufficient"
    (Invalid_argument "Ida.reconstruct: fewer than m distinct pieces") (fun () ->
      ignore
        (Ida.reconstruct ida ~length:12 [ pieces.(0); pieces.(1); pieces.(2) ]))

let test_duplicate_indices_dont_count () =
  let ida = Ida.create ~m:3 in
  let pieces = Ida.disperse ida ~n:5 (bytes_of_string "abcdef") in
  Alcotest.check_raises "duplicates collapse"
    (Invalid_argument "Ida.reconstruct: fewer than m distinct pieces") (fun () ->
      ignore (Ida.reconstruct ida ~length:6 [ pieces.(0); pieces.(0); pieces.(0) ]))

let test_extra_pieces_ignored () =
  let file = bytes_of_string "redundancy is uniform in IDA" in
  let ida = Ida.create ~m:4 in
  let pieces = Array.to_list (Ida.disperse ida ~n:9 file) in
  let back = Ida.reconstruct ida ~length:(Bytes.length file) pieces in
  check_bytes "extras ignored" file back

let test_padding () =
  (* Length not a multiple of m: padding must be stripped on rebuild. *)
  let ida = Ida.create ~m:4 in
  let file = bytes_of_string "seven b" in
  let pieces = Ida.disperse ida ~n:4 file in
  Alcotest.(check int) "piece size is ceil(7/4)" 2 (Bytes.length pieces.(0).Ida.data);
  let back = Ida.reconstruct ida ~length:7 (Array.to_list pieces) in
  check_bytes "padded roundtrip" file back

let test_m_one () =
  (* m = 1 is pure replication. *)
  let ida = Ida.create ~m:1 in
  let file = bytes_of_string "x" in
  let pieces = Ida.disperse ida ~n:3 file in
  Array.iter
    (fun p -> check_bytes "replica" file (Ida.reconstruct ida ~length:1 [ p ]))
    pieces

let test_empty_file () =
  let ida = Ida.create ~m:3 in
  let pieces = Ida.disperse ida ~n:5 Bytes.empty in
  let back = Ida.reconstruct ida ~length:0 (Array.to_list pieces) in
  Alcotest.(check int) "empty" 0 (Bytes.length back)

let test_bad_params () =
  Alcotest.check_raises "m = 0" (Invalid_argument "Ida.create: m must be in [1, 255]")
    (fun () -> ignore (Ida.create ~m:0));
  Alcotest.check_raises "m = 256" (Invalid_argument "Ida.create: m must be in [1, 255]")
    (fun () -> ignore (Ida.create ~m:256));
  let ida = Ida.create ~m:5 in
  Alcotest.check_raises "n < m" (Invalid_argument "Ida.disperse: need m <= n <= 255")
    (fun () -> ignore (Ida.disperse ida ~n:4 (bytes_of_string "hello")));
  Alcotest.check_raises "n > 255" (Invalid_argument "Ida.disperse: need m <= n <= 255")
    (fun () -> ignore (Ida.disperse ida ~n:256 (bytes_of_string "hello")))

let test_piece_indices_self_identify () =
  let ida = Ida.create ~m:2 in
  let pieces = Ida.disperse ida ~n:4 (bytes_of_string "abcd") in
  Array.iteri (fun i p -> Alcotest.(check int) "index" i p.Ida.index) pieces

let test_overhead () =
  Alcotest.(check (float 1e-9)) "n/m" 2.0 (Ida.overhead ~m:5 ~n:10);
  Alcotest.(check (float 1e-9)) "no redundancy" 1.0 (Ida.overhead ~m:5 ~n:5)

let test_duplicate_keeps_first () =
  (* Two pieces share an index but disagree in content: reconstruction
     must use the FIRST occurrence, deterministically. *)
  let file = bytes_of_string "first occurrence wins" in
  let ida = Ida.create ~m:3 in
  let pieces = Ida.disperse ida ~n:5 file in
  let forged =
    { Ida.index = pieces.(1).Ida.index;
      data = Bytes.map (fun c -> Char.chr (Char.code c lxor 0xff)) pieces.(1).Ida.data }
  in
  let len = Bytes.length file in
  (* genuine piece first: the forged duplicate is ignored *)
  let back =
    Ida.reconstruct ida ~length:len
      [ pieces.(0); pieces.(1); forged; pieces.(2) ]
  in
  check_bytes "genuine first" file back;
  (* forged piece first: it shadows the genuine one and corrupts output *)
  let bad =
    Ida.reconstruct ida ~length:len
      [ pieces.(0); forged; pieces.(1); pieces.(2) ]
  in
  Alcotest.(check bool) "forged first corrupts" false (Bytes.equal file bad)

let test_every_index_range_checked () =
  (* The range check covers every supplied index, not only the m that
     sort lowest: an out-of-range extra fails wherever it sorts. *)
  let ida = Ida.create ~m:2 in
  let pieces = Ida.disperse ida ~n:3 (bytes_of_string "range") in
  List.iter
    (fun index ->
      Alcotest.check_raises
        (Printf.sprintf "extra index %d" index)
        (Invalid_argument "Ida.reconstruct: piece index out of range")
        (fun () ->
          ignore
            (Ida.reconstruct ida ~length:5
               [ pieces.(0); pieces.(1); { pieces.(2) with Ida.index } ])))
    [ -1; 300 ]

let random_bytes seed len =
  let rng = Random.State.make [| seed |] in
  Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))

let test_reconstruct_allocation () =
  (* Only the lost block runs the kernel, and the kernel allocates
     nothing per unit: a 256 KiB coded rebuild stays under 1 024 minor
     words once its inverse is cached. *)
  let m = 4 and s = 65536 in
  let file = random_bytes 17 (m * s) in
  let ida = Ida.create ~m in
  let pieces = Ida.disperse ida ~n:(m + 2) file in
  let subset = [ pieces.(0); pieces.(2); pieces.(3); pieces.(4) ] in
  ignore (Ida.reconstruct ida ~length:(m * s) subset);
  let before = Gc.minor_words () in
  let back = Ida.reconstruct ida ~length:(m * s) subset in
  let words = Gc.minor_words () -. before in
  check_bytes "rebuilt" file back;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words < 1024" words)
    true (words < 1024.)

let test_reconstruct_kernel_tasks () =
  (* Kernel tasks run only for erased rows: one per erased row x 16 KiB
     column block. *)
  Obs.Control.with_enabled true @@ fun () ->
  let groups = Obs.Registry.counter "ida.encode.groups" in
  let tasks ida ~file pieces =
    let before = Obs.Registry.counter_value groups in
    let back = Ida.reconstruct ida ~length:(Bytes.length file) pieces in
    check_bytes "rebuilt" file back;
    Obs.Registry.counter_value groups - before
  in
  let file = random_bytes 5 40_000 in
  let ida = Ida.create ~m:1 in
  let pieces = Ida.disperse ida ~n:3 file in
  Alcotest.(check int) "m = 1 from piece 2 is a copy" 0
    (tasks ida ~file [ pieces.(2) ]);
  let file = random_bytes 6 (512 * 1024) in
  let ida = Ida.create ~m:8 in
  let pieces = Ida.disperse ida ~n:10 file in
  Alcotest.(check int) "m = 8 from pieces 2..9 rebuilds two rows" 8
    (tasks ida ~file (Array.to_list (Array.sub pieces 2 8)))

let test_short_last_block_erased () =
  (* The last source block is short when the length is not a multiple
     of m; rebuilt in place into the result, it must stop at [length]. *)
  List.iter
    (fun (m, len) ->
      let file = random_bytes (m + len) len in
      let ida = Ida.create ~m in
      let pieces = Ida.disperse ida ~n:(m + 2) file in
      let kept =
        List.filter (fun p -> p.Ida.index <> m - 1) (Array.to_list pieces)
      in
      let back = Ida.reconstruct ida ~length:len kept in
      Alcotest.(check int) (Printf.sprintf "m = %d: length" m) len
        (Bytes.length back);
      check_bytes (Printf.sprintf "m = %d, %d bytes" m len) file back)
    [ (3, 100); (4, 40_001); (5, 6); (8, 65_537) ]

(* Golden dispersal: the wire format must never drift. Expected bytes are
   pinned literally and re-derived from an independent scalar GF(256)
   model (carry-less shift-and-xor multiply, Vandermonde row i = powers
   of 3^i, systematized by Gauss-Jordan against the top square) that
   shares no code with the library kernels. The first [m] pieces are the
   source blocks verbatim — the systematic prefix is part of the wire
   format. *)
let test_golden_dispersal () =
  let file = bytes_of_string "GOLDEN" in
  let m = 3 and n = 5 in
  let golden =
    [| (0, "GO"); (1, "LD"); (2, "EN"); (3, "\x1a\x1b"); (4, "\xb4\x98") |]
  in
  let ida = Ida.create ~m in
  let pieces = Ida.disperse ida ~n file in
  Array.iteri
    (fun i (idx, data) ->
      Alcotest.(check int) "golden index" idx pieces.(i).Ida.index;
      check_bytes "golden data" (bytes_of_string data) pieces.(i).Ida.data)
    golden;
  (* independent model *)
  let slow_mul a b =
    let rec go acc a b =
      if b = 0 then acc
      else
        let acc = if b land 1 = 1 then acc lxor a else acc in
        let a = a lsl 1 in
        let a = if a land 0x100 <> 0 then a lxor 0x11b else a in
        go acc a (b lsr 1)
    in
    go 0 (a land 0xff) (b land 0xff)
  in
  let slow_inv a =
    let rec find x = if slow_mul a x = 1 then x else find (x + 1) in
    find 1
  in
  (* Vandermonde row i = powers of 3^i. *)
  let v =
    Array.init n (fun i ->
        let a =
          let rec pow3 acc k = if k = 0 then acc else pow3 (slow_mul acc 3) (k - 1) in
          pow3 1 i
        in
        let row = Array.make m 0 in
        let c = ref 1 in
        for j = 0 to m - 1 do
          row.(j) <- !c;
          c := slow_mul !c a
        done;
        row)
  in
  (* Invert the top m x m square by Gauss-Jordan. *)
  let a = Array.init m (fun i -> Array.copy v.(i)) in
  let tinv = Array.init m (fun i -> Array.init m (fun j -> if i = j then 1 else 0)) in
  for col = 0 to m - 1 do
    let p = ref col in
    while a.(!p).(col) = 0 do
      incr p
    done;
    let swap arr =
      let t = arr.(col) in
      arr.(col) <- arr.(!p);
      arr.(!p) <- t
    in
    swap a;
    swap tinv;
    let s = slow_inv a.(col).(col) in
    for j = 0 to m - 1 do
      a.(col).(j) <- slow_mul s a.(col).(j);
      tinv.(col).(j) <- slow_mul s tinv.(col).(j)
    done;
    for r = 0 to m - 1 do
      if r <> col && a.(r).(col) <> 0 then begin
        let f = a.(r).(col) in
        for j = 0 to m - 1 do
          a.(r).(j) <- a.(r).(j) lxor slow_mul f a.(col).(j);
          tinv.(r).(j) <- tinv.(r).(j) lxor slow_mul f tinv.(col).(j)
        done
      end
    done
  done;
  (* Systematic dispersal row i = (V * Tinv) row i. *)
  let srow i =
    Array.init m (fun j ->
        let acc = ref 0 in
        for k = 0 to m - 1 do
          acc := !acc lxor slow_mul v.(i).(k) tinv.(k).(j)
        done;
        !acc)
  in
  let s = (Bytes.length file + m - 1) / m in
  let block j i =
    let off = (j * s) + i in
    if off < Bytes.length file then Char.code (Bytes.get file off) else 0
  in
  Array.iteri
    (fun i p ->
      let row = srow i in
      for byte = 0 to s - 1 do
        let expect = ref 0 in
        for j = 0 to m - 1 do
          expect := !expect lxor slow_mul row.(j) (block j byte)
        done;
        Alcotest.(check int)
          (Printf.sprintf "model piece %d byte %d" i byte)
          !expect
          (Char.code (Bytes.get p.Ida.data byte))
      done)
    pieces

let test_inverse_cache_capped () =
  let ida = Ida.create ~m:2 in
  Ida.set_cache_cap ida 3;
  let file = bytes_of_string "cache cap" in
  let pieces = Ida.disperse ida ~n:8 file in
  let len = Bytes.length file in
  (* touch more distinct subsets than the cap *)
  for a = 0 to 6 do
    let subset = [ pieces.(a); pieces.(a + 1) ] in
    check_bytes "reconstructs" file (Ida.reconstruct ida ~length:len subset)
  done;
  Alcotest.(check bool) "cache within cap" true (Ida.cached_inverses ida <= 3);
  (* capped cache still answers correctly on both hits and misses *)
  for a = 6 downto 0 do
    let subset = [ pieces.(a); pieces.(a + 1) ] in
    check_bytes "reconstructs after eviction" file
      (Ida.reconstruct ida ~length:len subset)
  done;
  Alcotest.(check bool) "still within cap" true (Ida.cached_inverses ida <= 3);
  Alcotest.check_raises "cap must be positive"
    (Invalid_argument "Ida.set_cache_cap: cap must be >= 1") (fun () ->
      Ida.set_cache_cap ida 0)

let test_cache_replaces_oldest () =
  (* The lock-free cache replaces the oldest entry under capacity
     pressure (insertion order, not access order — entries are immutable
     so hits touch nothing). Sequentially that is fully deterministic. *)
  let ida = Ida.create ~m:2 in
  Ida.set_cache_cap ida 2;
  let file = bytes_of_string "replacement" in
  let pieces = Ida.disperse ida ~n:6 file in
  let len = Bytes.length file in
  let recon a b = ignore (Ida.reconstruct ida ~length:len [ pieces.(a); pieces.(b) ]) in
  recon 0 1;
  (* miss *)
  recon 2 3;
  (* miss *)
  recon 0 1;
  (* hit *)
  recon 4 5;
  (* miss; at cap, so the oldest entry (0,1) is replaced *)
  Alcotest.(check int) "cap held" 2 (Ida.cached_inverses ida);
  recon 2 3;
  (* hit: survived the replacement *)
  recon 4 5;
  (* hit *)
  Alcotest.(check (pair int int)) "hits/misses" (3, 3) (Ida.cache_stats ida);
  recon 0 1;
  (* miss again: it was the replaced entry *)
  Alcotest.(check (pair int int)) "replaced entry misses" (3, 4)
    (Ida.cache_stats ida)

let test_transmit_wastes_no_encode_passes () =
  (* Aida.transmit at capacity c must encode exactly the allocated n
     pieces — the seed encoded all [capacity] rows and discarded the
     rest. *)
  let ida = Ida.create ~m:4 in
  let file = bytes_of_string "no wasted encode passes" in
  let before = Ida.encode_passes () in
  let sent = Aida.transmit ida ~capacity:32 Aida.Important file in
  let used = Ida.encode_passes () - before in
  Alcotest.(check int) "m + 2 pieces sent" 6 (Array.length sent);
  Alcotest.(check int) "exactly n encode passes" 6 used;
  (* non-real-time: no redundancy, exactly m passes *)
  let before = Ida.encode_passes () in
  ignore (Aida.transmit ida ~capacity:32 Aida.Non_real_time file);
  Alcotest.(check int) "nrt passes" 4 (Ida.encode_passes () - before)

let prop_parallel_matches_sequential =
  (* The pool path must be byte-identical to the sequential path for both
     disperse and reconstruct, across the parallel cutoff. *)
  QCheck2.Test.make ~name:"pool disperse/reconstruct == sequential" ~count:20
    QCheck2.Gen.(
      triple (int_range 1 6)
        (oneofl [ 0; 1; 37; 1024; 40_000 ])
        (int_bound 1_000_000))
    (fun (m, len, seed) ->
      let rng = Random.State.make [| seed |] in
      let n = m + 2 in
      let file = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
      let ida = Ida.create ~m in
      let pool = Pindisk_util.Pool.create ~domains:3 () in
      Fun.protect
        ~finally:(fun () -> Pindisk_util.Pool.shutdown pool)
        (fun () ->
          let seq = Ida.disperse ida ~n file in
          let par = Ida.disperse ~pool ida ~n file in
          let pieces_equal =
            Array.for_all2
              (fun a b ->
                a.Ida.index = b.Ida.index && Bytes.equal a.Ida.data b.Ida.data)
              seq par
          in
          let subset = Array.to_list (Array.sub par (n - m) m) in
          let seq_back = Ida.reconstruct ida ~length:len subset in
          let par_back = Ida.reconstruct ~pool ida ~length:len subset in
          pieces_equal
          && Bytes.equal seq_back file
          && Bytes.equal par_back file))

let test_multi_domain_reconstruct_shared_context () =
  (* Several domains reconstruct concurrently through ONE Ida.t — cold
     cache, overlapping row subsets — exercising the lock-free inverse
     cache under real races. Every result must equal the file, and the
     cache must stay within its cap. *)
  let m = 5 in
  let len = 40_000 in
  let rng = Random.State.make [| 4242 |] in
  let file = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
  let ida = Ida.create ~m in
  Ida.set_cache_cap ida 4;
  let pieces = Ida.disperse ida ~n:12 file in
  let subsets =
    (* coded-heavy subsets so reconstruction exercises the kernel, plus
       the all-systematic one *)
    [|
      [ 7; 8; 9; 10; 11 ]; [ 0; 8; 9; 10; 11 ]; [ 1; 2; 9; 10; 11 ];
      [ 3; 4; 5; 10; 11 ]; [ 0; 1; 2; 3; 4 ]; [ 2; 5; 7; 9; 11 ];
    |]
  in
  let worker d () =
    let ok = ref true in
    for round = 0 to 11 do
      let subset =
        List.map (fun i -> pieces.(i))
          subsets.((d + round) mod Array.length subsets)
      in
      let back = Ida.reconstruct ida ~length:len subset in
      if not (Bytes.equal back file) then ok := false
    done;
    !ok
  in
  let domains = Array.init 3 (fun d -> Domain.spawn (worker (d + 1))) in
  let own = worker 0 () in
  let all = Array.for_all Domain.join domains && own in
  Alcotest.(check bool) "all domains reconstruct the file" true all;
  Alcotest.(check bool) "cache within cap" true (Ida.cached_inverses ida <= 4);
  let hits, misses = Ida.cache_stats ida in
  Alcotest.(check int) "every lookup accounted" 48 (hits + misses)

(* qcheck: random files, parameters and subsets *)

(* Scalar oracle: invert the chosen dispersal rows and apply the
   inverse byte by byte through [Gf256.mul], sharing no bulk kernel
   with the library. *)
let oracle_reconstruct ~m ~length chosen =
  let inv =
    Option.get
      (Matrix.invert
         (Matrix.select_rows
            (Matrix.systematic ~rows:255 ~cols:m)
            (Array.map (fun p -> p.Ida.index) chosen)))
  in
  let s = Bytes.length chosen.(0).Ida.data in
  Bytes.init length (fun i ->
      let j = i / s and b = i mod s in
      let acc = ref 0 in
      for k = 0 to m - 1 do
        acc :=
          !acc
          lxor Gf256.mul (Matrix.get inv j k)
                 (Char.code (Bytes.get chosen.(k).Ida.data b))
      done;
      Char.chr !acc)

let prop_erasure_reconstruct_matches_oracle =
  (* Chosen subsets of k systematic and m - k coded rows, for every k
     the field admits; lengths spanning several 16 KiB column blocks
     with unaligned tails; valid extras above the chosen rows, and
     corrupted duplicates after the originals. *)
  QCheck2.Test.make ~name:"erasure-only reconstruct == scalar oracle" ~count:60
    QCheck2.Gen.(
      triple
        (frequency
           [ (6, int_range 1 8); (3, int_range 9 32); (1, int_range 33 255) ])
        (int_bound 41_000) (int_bound 1_000_000))
    (fun (m, len, seed) ->
      let rng = Random.State.make [| seed |] in
      let pick k lo hi =
        (* [k] distinct values of [lo, hi), ascending *)
        let a = Array.init (hi - lo) (fun i -> lo + i) in
        for i = 0 to k - 1 do
          let r = i + Random.State.int rng (hi - lo - i) in
          let t = a.(i) in
          a.(i) <- a.(r);
          a.(r) <- t
        done;
        List.sort compare (Array.to_list (Array.sub a 0 k))
      in
      let k_min = max 0 ((2 * m) - 255) in
      let k = k_min + Random.State.int rng (m - k_min + 1) in
      let rows = pick k 0 m @ pick (m - k) m 255 in
      let top = List.fold_left max 0 rows in
      let extras =
        pick (min (254 - top) (Random.State.int rng 3)) (top + 1) 255
      in
      let n = List.fold_left max top extras + 1 in
      let file = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
      let ida = Ida.create ~m in
      let dispersed = Ida.disperse ida ~n file in
      let genuine =
        List.sort
          (fun _ _ -> Random.State.int rng 3 - 1)
          (List.map (fun i -> dispersed.(i)) (rows @ extras))
      in
      let forged =
        List.filter_map
          (fun i ->
            let flip c = Char.chr (Char.code c lxor 0x5a) in
            if Random.State.bool rng then
              Some { Ida.index = i; data = Bytes.map flip dispersed.(i).Ida.data }
            else None)
          rows
      in
      let supplied = genuine @ forged in
      let chosen = Array.of_list (List.map (fun i -> dispersed.(i)) rows) in
      let expect = oracle_reconstruct ~m ~length:len chosen in
      let passes f =
        let before = Ida.encode_passes () in
        let back = f () in
        (back, Ida.encode_passes () - before)
      in
      let seq, seq_passes =
        passes (fun () -> Ida.reconstruct ida ~length:len supplied)
      in
      let pool = Pindisk_util.Pool.create ~domains:2 () in
      let par, par_passes =
        Fun.protect
          ~finally:(fun () -> Pindisk_util.Pool.shutdown pool)
          (fun () ->
            passes (fun () -> Ida.reconstruct ~pool ida ~length:len supplied))
      in
      Bytes.equal expect file && Bytes.equal seq file && Bytes.equal par file
      && seq_passes = m && par_passes = m)

let prop_dispersal_linear =
  (* IDA is a linear code: dispersing the XOR of two equal-length files
     gives the XOR of their dispersals, block by block. *)
  QCheck2.Test.make ~name:"dispersal is linear over GF(2)" ~count:60
    QCheck2.Gen.(triple (int_range 1 8) (int_range 1 60) (int_bound 1_000_000))
    (fun (m, len, seed) ->
      let rng = Random.State.make [| seed |] in
      let n = m + 3 in
      let file () = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
      let x = file () and y = file () in
      let xor a b =
        Bytes.init len (fun i ->
            Char.chr (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i)))
      in
      let ida = Ida.create ~m in
      let dx = Ida.disperse ida ~n x
      and dy = Ida.disperse ida ~n y
      and dxy = Ida.disperse ida ~n (xor x y) in
      Array.for_all
        (fun i ->
          let s = Bytes.length dx.(i).Ida.data in
          let rec ok p =
            p >= s
            || Char.code (Bytes.get dx.(i).Ida.data p)
               lxor Char.code (Bytes.get dy.(i).Ida.data p)
               = Char.code (Bytes.get dxy.(i).Ida.data p)
               && ok (p + 1)
          in
          ok 0)
        (Array.init n (fun i -> i)))

let prop_any_loss_pattern_up_to_redundancy =
  QCheck2.Test.make ~name:"every loss pattern within redundancy reconstructs" ~count:80
    QCheck2.Gen.(pair (int_range 1 6) (int_bound 1_000_000))
    (fun (m, seed) ->
      let rng = Random.State.make [| seed |] in
      let r = 1 + Random.State.int rng 3 in
      let n = m + r in
      let len = 1 + Random.State.int rng 40 in
      let file = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
      let ida = Ida.create ~m in
      let pieces = Array.to_list (Ida.disperse ida ~n file) in
      (* Drop a random subset of exactly r pieces. *)
      let dropped = Array.make n false in
      let k = ref 0 in
      while !k < r do
        let i = Random.State.int rng n in
        if not dropped.(i) then begin
          dropped.(i) <- true;
          incr k
        end
      done;
      let survivors = List.filter (fun p -> not dropped.(p.Ida.index)) pieces in
      Bytes.equal (Ida.reconstruct ida ~length:len survivors) file)

let prop_roundtrip_random =
  QCheck2.Test.make ~name:"random m-of-n subset reconstructs" ~count:100
    QCheck2.Gen.(
      triple (int_range 1 12) (int_range 0 200) (int_bound 1_000_000))
    (fun (m, len, seed) ->
      let rng = Random.State.make [| seed |] in
      let n = m + Random.State.int rng (min 12 (256 - m)) in
      let file = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
      let ida = Ida.create ~m in
      let pieces = Array.to_list (Ida.disperse ida ~n file) in
      (* Random subset of exactly m pieces. *)
      let shuffled = List.sort (fun _ _ -> Random.State.int rng 3 - 1) pieces in
      let subset = List.filteri (fun i _ -> i < m) shuffled in
      let subset = List.sort_uniq (fun a b -> compare a.Ida.index b.Ida.index) subset in
      if List.length subset < m then true (* shuffle degenerated; skip *)
      else Bytes.equal (Ida.reconstruct ida ~length:len subset) file)

(* ------------------------------------------------------------------ *)
(* AIDA                                                               *)
(* ------------------------------------------------------------------ *)

let test_redundancy_levels () =
  Alcotest.(check int) "nrt" 0 (Aida.redundancy Aida.Non_real_time);
  Alcotest.(check int) "standard" 1 (Aida.redundancy Aida.Standard);
  Alcotest.(check int) "important" 2 (Aida.redundancy Aida.Important);
  Alcotest.(check int) "critical" 7 (Aida.redundancy (Aida.Critical 7))

let test_allocate () =
  Alcotest.(check int) "no redundancy" 5 (Aida.allocate ~m:5 ~capacity:10 Aida.Non_real_time);
  Alcotest.(check int) "one" 6 (Aida.allocate ~m:5 ~capacity:10 Aida.Standard);
  Alcotest.(check int) "clamped" 10 (Aida.allocate ~m:5 ~capacity:10 (Aida.Critical 99));
  Alcotest.check_raises "bad" (Invalid_argument "Aida.allocate: need 1 <= m <= capacity <= 255")
    (fun () -> ignore (Aida.allocate ~m:5 ~capacity:4 Aida.Standard))

let test_profiles () =
  let combat = [ ("radar", Aida.Critical 3); ("music", Aida.Non_real_time) ] in
  Alcotest.(check int) "radar redundancy" 3
    (Aida.redundancy (Aida.criticality_in combat "radar"));
  Alcotest.(check int) "unknown file defaults" 0
    (Aida.redundancy (Aida.criticality_in combat "weather"))

let test_transmit_is_prefix_of_dispersal () =
  let file = bytes_of_string "mode-dependent redundancy" in
  let ida = Ida.create ~m:4 in
  let sent = Aida.transmit ida ~capacity:8 Aida.Important file in
  Alcotest.(check int) "m + 2 blocks" 6 (Array.length sent);
  let full = Ida.disperse ida ~n:8 file in
  Array.iteri
    (fun i p ->
      Alcotest.(check int) "same index" full.(i).Ida.index p.Ida.index;
      check_bytes "same data" full.(i).Ida.data p.Ida.data)
    sent;
  (* The transmitted blocks alone reconstruct, and survive losing 2. *)
  let survivors = [ sent.(0); sent.(2); sent.(4); sent.(5) ] in
  check_bytes "survives 2 losses" file
    (Ida.reconstruct ida ~length:(Bytes.length file) survivors)

let () =
  Alcotest.run "ida"
    [
      ( "ida",
        [
          Alcotest.test_case "roundtrip all pieces" `Quick test_roundtrip_all_pieces;
          Alcotest.test_case "any m-subset reconstructs" `Quick test_roundtrip_any_m_subset;
          Alcotest.test_case "too few pieces" `Quick test_too_few_pieces;
          Alcotest.test_case "duplicates don't count" `Quick test_duplicate_indices_dont_count;
          Alcotest.test_case "extra pieces ignored" `Quick test_extra_pieces_ignored;
          Alcotest.test_case "padding" `Quick test_padding;
          Alcotest.test_case "m = 1 replication" `Quick test_m_one;
          Alcotest.test_case "empty file" `Quick test_empty_file;
          Alcotest.test_case "bad params" `Quick test_bad_params;
          Alcotest.test_case "self-identifying pieces" `Quick test_piece_indices_self_identify;
          Alcotest.test_case "overhead" `Quick test_overhead;
          Alcotest.test_case "duplicate keeps first occurrence" `Quick
            test_duplicate_keeps_first;
          Alcotest.test_case "every index range-checked" `Quick
            test_every_index_range_checked;
          Alcotest.test_case "reconstruct allocation" `Quick
            test_reconstruct_allocation;
          Alcotest.test_case "kernel tasks only for erased rows" `Quick
            test_reconstruct_kernel_tasks;
          Alcotest.test_case "short last block erased" `Quick
            test_short_last_block_erased;
          Alcotest.test_case "golden dispersal" `Quick test_golden_dispersal;
          Alcotest.test_case "inverse cache capped" `Quick test_inverse_cache_capped;
          Alcotest.test_case "cache replaces oldest" `Quick test_cache_replaces_oldest;
          Alcotest.test_case "multi-domain reconstruct shares one context" `Quick
            test_multi_domain_reconstruct_shared_context;
        ] );
      ( "ida-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip_random;
            prop_dispersal_linear;
            prop_any_loss_pattern_up_to_redundancy;
            prop_parallel_matches_sequential;
            prop_erasure_reconstruct_matches_oracle;
          ] );
      ( "aida",
        [
          Alcotest.test_case "redundancy levels" `Quick test_redundancy_levels;
          Alcotest.test_case "allocate" `Quick test_allocate;
          Alcotest.test_case "profiles" `Quick test_profiles;
          Alcotest.test_case "transmit prefix" `Quick test_transmit_is_prefix_of_dispersal;
          Alcotest.test_case "transmit wastes no encode passes" `Quick
            test_transmit_wastes_no_encode_passes;
        ] );
    ]
