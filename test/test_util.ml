module Intmath = Pindisk_util.Intmath
module Q = Pindisk_util.Q

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Intmath                                                            *)
(* ------------------------------------------------------------------ *)

let test_gcd () =
  check_int "gcd 12 18" 6 (Intmath.gcd 12 18);
  check_int "gcd 0 0" 0 (Intmath.gcd 0 0);
  check_int "gcd 0 7" 7 (Intmath.gcd 0 7);
  check_int "gcd neg" 6 (Intmath.gcd (-12) 18);
  check_int "gcd coprime" 1 (Intmath.gcd 17 31)

let test_lcm () =
  check_int "lcm 4 6" 12 (Intmath.lcm 4 6);
  check_int "lcm 0 5" 0 (Intmath.lcm 0 5);
  check_int "lcm 7 7" 7 (Intmath.lcm 7 7);
  check_int "lcm_list" 60 (Intmath.lcm_list [ 4; 6; 10 ]);
  check_int "lcm_list empty" 1 (Intmath.lcm_list []);
  Alcotest.check_raises "lcm overflow" Intmath.Overflow (fun () ->
      ignore (Intmath.lcm max_int (max_int - 1)))

let test_pow () =
  check_int "2^10" 1024 (Intmath.pow 2 10);
  check_int "x^0" 1 (Intmath.pow 5 0);
  check_int "0^5" 0 (Intmath.pow 0 5);
  check_int "1^big" 1 (Intmath.pow 1 1000);
  Alcotest.check_raises "pow overflow" Intmath.Overflow (fun () ->
      ignore (Intmath.pow 2 64));
  Alcotest.check_raises "pow negative" (Invalid_argument "Intmath.pow: negative exponent")
    (fun () -> ignore (Intmath.pow 2 (-1)))

let test_divisions () =
  check_int "floor_div pos" 2 (Intmath.floor_div 7 3);
  check_int "floor_div neg" (-3) (Intmath.floor_div (-7) 3);
  check_int "ceil_div pos" 3 (Intmath.ceil_div 7 3);
  check_int "ceil_div exact" 2 (Intmath.ceil_div 6 3);
  check_int "ceil_div neg" (-2) (Intmath.ceil_div (-7) 3)

let test_log2 () =
  check_int "floor_log2 1" 0 (Intmath.floor_log2 1);
  check_int "floor_log2 2" 1 (Intmath.floor_log2 2);
  check_int "floor_log2 1023" 9 (Intmath.floor_log2 1023);
  check_int "floor_log2 1024" 10 (Intmath.floor_log2 1024);
  check_int "floor_pow2 100" 64 (Intmath.floor_pow2 100);
  check_bool "is_power_of_two 64" true (Intmath.is_power_of_two 64);
  check_bool "is_power_of_two 0" false (Intmath.is_power_of_two 0);
  check_bool "is_power_of_two 96" false (Intmath.is_power_of_two 96)

let test_lists () =
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Intmath.range 2 5);
  Alcotest.(check (list int)) "range empty" [] (Intmath.range 5 5);
  check_int "sum" 10 (Intmath.sum [ 1; 2; 3; 4 ]);
  check_int "max_list" 9 (Intmath.max_list [ 3; 9; 1 ]);
  check_int "min_list" 1 (Intmath.min_list [ 3; 9; 1 ])

(* ------------------------------------------------------------------ *)
(* Q                                                                  *)
(* ------------------------------------------------------------------ *)

let q = Alcotest.testable Q.pp Q.equal

let test_q_normalization () =
  Alcotest.check q "6/8 = 3/4" (Q.make 3 4) (Q.make 6 8);
  Alcotest.check q "neg den" (Q.make (-1) 2) (Q.make 1 (-2));
  Alcotest.check q "zero" Q.zero (Q.make 0 17);
  check_int "den positive" 2 (Q.make 1 (-2)).Q.den;
  Alcotest.check_raises "zero den" (Invalid_argument "Q.make: zero denominator")
    (fun () -> ignore (Q.make 1 0))

let test_q_arith () =
  Alcotest.check q "1/2 + 1/3" (Q.make 5 6) (Q.add (Q.make 1 2) (Q.make 1 3));
  Alcotest.check q "1/2 - 1/3" (Q.make 1 6) (Q.sub (Q.make 1 2) (Q.make 1 3));
  Alcotest.check q "2/3 * 3/4" (Q.make 1 2) (Q.mul (Q.make 2 3) (Q.make 3 4));
  Alcotest.check q "div" (Q.make 8 9) (Q.div (Q.make 2 3) (Q.make 3 4));
  Alcotest.check q "sum" Q.one (Q.sum [ Q.make 1 2; Q.make 1 3; Q.make 1 6 ]);
  Alcotest.check q "sum scales by the lcm, not the product"
    (Q.make 3 (1 lsl 41))
    (Q.add (Q.make 1 (1 lsl 40)) (Q.make 1 (1 lsl 41)));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero))

let test_q_compare () =
  check_bool "7/10 <= 7/10" true Q.(Q.make 7 10 <= Q.make 7 10);
  check_bool "7/10 < 7/10" false Q.(Q.make 7 10 < Q.make 7 10);
  check_bool "boundary 1/2+1/6+1/3 <= 1" true Q.(Q.sum [ Q.make 1 2; Q.make 1 6; Q.make 1 3 ] <= Q.one);
  check_bool "just above 1" false
    Q.(Q.sum [ Q.make 1 2; Q.make 1 6; Q.make 1 3; Q.make 1 1000 ] <= Q.one);
  (* Representable values compare even where the cross products
     overflow a native int. *)
  let near_one = Q.make (max_int - 1) max_int in
  check_bool "near 1 below 3/2" true Q.(near_one < Q.make 3 2);
  check_bool "near 1 above its neighbour" true
    Q.(near_one > Q.make (max_int - 2) (max_int - 1));
  Alcotest.check q "min" (Q.make 1 3) (Q.min (Q.make 1 2) (Q.make 1 3));
  Alcotest.check q "max" (Q.make 1 2) (Q.max (Q.make 1 2) (Q.make 1 3))

let test_q_rounding () =
  check_int "ceil 7/2" 4 (Q.ceil (Q.make 7 2));
  check_int "ceil 6/2" 3 (Q.ceil (Q.make 6 2));
  check_int "ceil -7/2" (-3) (Q.ceil (Q.make (-7) 2));
  check_int "floor 7/2" 3 (Q.floor (Q.make 7 2));
  check_int "floor -7/2" (-4) (Q.floor (Q.make (-7) 2));
  Alcotest.(check string) "pp frac" "7/10" (Q.to_string (Q.make 7 10));
  Alcotest.(check string) "pp int" "3" (Q.to_string (Q.of_int 3))

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

module Stats = Pindisk_util.Stats

let test_stats_basics () =
  let s = Stats.create () in
  List.iter (Stats.add_int s) [ 4; 1; 3; 2; 5 ];
  check_int "count" 5 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "total" 15.0 (Stats.total s);
  Alcotest.(check (float 1e-9)) "variance" 2.0 (Stats.variance s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.max_value s);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median s)

let test_stats_percentile_interpolation () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.0; 20.0 ];
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p50" 15.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p100" 20.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p25" 12.5 (Stats.percentile s 25.0)

let test_stats_add_after_percentile () =
  (* Sorting for a percentile must not corrupt later additions. *)
  let s = Stats.create () in
  List.iter (Stats.add s) [ 3.0; 1.0 ];
  ignore (Stats.median s);
  Stats.add s 2.0;
  Alcotest.(check (float 1e-9)) "median after more adds" 2.0 (Stats.median s);
  check_int "count" 3 (Stats.count s)

let test_stats_empty () =
  let s = Stats.create () in
  check_bool "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.check_raises "min of empty" (Invalid_argument "Stats.min_value: empty")
    (fun () -> ignore (Stats.min_value s));
  Alcotest.(check (list (triple (float 1e-9) (float 1e-9) int))) "histogram empty" []
    (Stats.histogram s ~buckets:4)

let test_stats_histogram () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 0.0; 1.0; 2.0; 3.0 ];
  let h = Stats.histogram s ~buckets:2 in
  check_int "two buckets" 2 (List.length h);
  let counts = List.map (fun (_, _, c) -> c) h in
  Alcotest.(check (list int)) "counts" [ 2; 2 ] counts

let prop_stats_percentiles_monotone =
  QCheck2.Test.make ~name:"percentiles are monotone" ~count:200
    QCheck2.Gen.(list_size (int_range 1 30) (float_bound_inclusive 100.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ] in
      let vals = List.map (Stats.percentile s) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono vals
      && Stats.percentile s 0.0 = Stats.min_value s
      && Stats.percentile s 100.0 = Stats.max_value s)

let test_stats_variance_large_offset () =
  (* sum_sq/n - mean^2 catastrophically cancels with a 1e9 offset; the
     two-pass computation must still see the jitter. *)
  let s = Stats.create () in
  List.iter (fun j -> Stats.add s (1e9 +. j)) [ 0.0; 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check (float 1e-6)) "offset variance" 2.0 (Stats.variance s);
  Alcotest.(check (float 1e-6)) "offset mean" 1e9 (Stats.mean s +. (-2.0));
  (* constant data at a large offset: variance is exactly zero *)
  let c = Stats.create () in
  List.iter (fun _ -> Stats.add c 1e9) [ (); (); () ];
  Alcotest.(check (float 0.0)) "constant variance" 0.0 (Stats.variance c)

let test_stats_weighted_basics () =
  let s = Stats.create () in
  Stats.add_weighted s 2.0 3;
  Stats.add_weighted s 5.0 1;
  Stats.add_weighted s 4.0 0;
  (* weight 0: no-op *)
  check_int "count is total weight" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "total" 11.0 (Stats.total s);
  Alcotest.(check (float 1e-9)) "mean" 2.75 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.max_value s);
  Alcotest.(check (float 1e-9)) "median" 2.0 (Stats.median s);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Stats.add_weighted: negative weight") (fun () ->
      Stats.add_weighted s 1.0 (-1))

let prop_stats_weighted_equals_expanded =
  (* add_weighted x w must be indistinguishable from w calls to add x —
     the cohort engine's O(1) class accounting rests on this. *)
  QCheck2.Test.make ~name:"weighted equals expanded" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 12)
        (pair (float_bound_inclusive 50.0) (int_range 0 9)))
    (fun entries ->
      let w = Stats.create () and e = Stats.create () in
      List.iter
        (fun (x, n) ->
          Stats.add_weighted w x n;
          for _ = 1 to n do
            Stats.add e x
          done)
        entries;
      Stats.count w = Stats.count e
      && abs_float (Stats.total w -. Stats.total e) < 1e-9
      && (Stats.count w = 0
         || abs_float (Stats.variance w -. Stats.variance e) < 1e-9
            && Stats.min_value w = Stats.min_value e
            && Stats.max_value w = Stats.max_value e
            && List.for_all
                 (fun p ->
                   abs_float (Stats.percentile w p -. Stats.percentile e p)
                   < 1e-9)
                 [ 0.0; 10.0; 50.0; 90.0; 99.0; 100.0 ]))

(* ------------------------------------------------------------------ *)
(* mix64                                                              *)
(* ------------------------------------------------------------------ *)

let test_mix64_decorrelates () =
  (* Consecutive inputs must not produce correlated outputs: over seeds
     s..s+63, low bits of mix64 should not follow the input parity. *)
  let same = ref 0 in
  for k = 0 to 63 do
    if Intmath.mix64 (1000 + k) land 1 = k land 1 then incr same
  done;
  check_bool "parity decorrelated" true (!same > 16 && !same < 48);
  (* injective on a sample window *)
  let seen = Hashtbl.create 256 in
  for k = -500 to 500 do
    Hashtbl.replace seen (Intmath.mix64 k) ()
  done;
  check_int "no collisions over 1001 inputs" 1001 (Hashtbl.length seen);
  (* deterministic and non-negative *)
  check_int "deterministic" (Intmath.mix64 42) (Intmath.mix64 42);
  check_bool "non-negative" true (Intmath.mix64 min_int >= 0)

let test_mix64_avalanche () =
  (* Flipping one input bit should flip roughly half the output bits. *)
  let popcount x =
    let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
    go 0 x
  in
  let total = ref 0 in
  let trials = 64 in
  for k = 1 to trials do
    let a = Intmath.mix64 k and b = Intmath.mix64 (k lxor 1) in
    total := !total + popcount (a lxor b)
  done;
  let avg = float_of_int !total /. float_of_int trials in
  check_bool
    (Printf.sprintf "avalanche avg %.1f bits" avg)
    true
    (avg > 20.0 && avg < 44.0)

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

module Pool = Pindisk_util.Pool

let test_pool_parallel_for () =
  let pool = Pool.create ~domains:3 () in
  check_int "size" 3 (Pool.size pool);
  let hits = Array.make 1000 0 in
  Pool.parallel_for pool ~n:1000 (fun i -> hits.(i) <- hits.(i) + 1);
  check_bool "every index exactly once" true (Array.for_all (( = ) 1) hits);
  (* reusable across jobs *)
  let acc = Atomic.make 0 in
  Pool.parallel_for pool ~n:100 (fun i -> ignore (Atomic.fetch_and_add acc i));
  check_int "sum 0..99" 4950 (Atomic.get acc);
  Pool.shutdown pool

let test_pool_single_domain_inline () =
  let pool = Pool.create ~domains:1 () in
  check_int "size" 1 (Pool.size pool);
  let seen = ref [] in
  Pool.parallel_for pool ~n:5 (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "inline, in order" [ 4; 3; 2; 1; 0 ] !seen;
  Pool.shutdown pool

let test_pool_exception_propagates () =
  let pool = Pool.create ~domains:2 () in
  Alcotest.check_raises "worker exception re-raised" (Failure "boom") (fun () ->
      Pool.parallel_for pool ~n:10 (fun i -> if i = 7 then failwith "boom"));
  (* the pool survives a failed job *)
  let ok = Atomic.make 0 in
  Pool.parallel_for pool ~n:10 (fun _ -> ignore (Atomic.fetch_and_add ok 1));
  check_int "pool alive after failure" 10 (Atomic.get ok);
  Pool.shutdown pool

let test_pool_error_race () =
  (* Every task fails, from whichever domain claims it: the atomic error
     slot must surface exactly one of the raised exceptions (first CAS
     wins — no torn read of a mutable option), and the pool must stay
     usable afterwards. *)
  let pool = Pool.create ~domains:4 () in
  let raised = ref None in
  (try
     Pool.parallel_for pool ~n:64 (fun i -> raise (Failure (string_of_int i)))
   with Failure msg -> raised := Some msg);
  (match !raised with
  | Some msg ->
      let i = int_of_string msg in
      check_bool "a task's own error surfaced" true (i >= 0 && i < 64)
  | None -> Alcotest.fail "no exception propagated");
  let ok = Atomic.make 0 in
  Pool.parallel_for pool ~n:32 (fun _ -> ignore (Atomic.fetch_and_add ok 1));
  check_int "pool alive after racing failures" 32 (Atomic.get ok);
  Pool.shutdown pool

let test_pool_empty_and_bad () =
  let pool = Pool.create ~domains:2 () in
  Pool.parallel_for pool ~n:0 (fun _ -> assert false);
  Alcotest.check_raises "negative n" (Invalid_argument "Pool.parallel_for: negative count")
    (fun () -> Pool.parallel_for pool ~n:(-1) (fun _ -> ()));
  Pool.shutdown pool;
  Alcotest.check_raises "bad domains" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0 ()))

(* qcheck properties *)

let small = QCheck2.Gen.int_range (-50) 50
let small_pos = QCheck2.Gen.int_range 1 50

let arb_q =
  QCheck2.Gen.map2 (fun n d -> Q.make n d) small small_pos

let prop_add_commutative =
  QCheck2.Test.make ~name:"Q.add commutative" ~count:500
    QCheck2.Gen.(pair arb_q arb_q)
    (fun (a, b) -> Q.equal (Q.add a b) (Q.add b a))

let prop_add_associative =
  QCheck2.Test.make ~name:"Q.add associative" ~count:500
    QCheck2.Gen.(triple arb_q arb_q arb_q)
    (fun (a, b, c) -> Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c)))

let prop_mul_distributes =
  QCheck2.Test.make ~name:"Q.mul distributes over add" ~count:500
    QCheck2.Gen.(triple arb_q arb_q arb_q)
    (fun (a, b, c) ->
      Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_compare_matches_float =
  QCheck2.Test.make ~name:"Q.compare agrees with float on non-ties" ~count:500
    QCheck2.Gen.(pair arb_q arb_q)
    (fun (a, b) ->
      let fa = Q.to_float a and fb = Q.to_float b in
      if abs_float (fa -. fb) < 1e-9 then true
      else compare fa fb = Q.compare a b)

let prop_floor_ceil =
  QCheck2.Test.make ~name:"floor <= q <= ceil, within 1" ~count:500 arb_q
    (fun a ->
      let f = Q.floor a and c = Q.ceil a in
      Q.(Q.of_int f <= a) && Q.(a <= Q.of_int c) && c - f <= 1)

let () =
  Alcotest.run "util"
    [
      ( "intmath",
        [
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "lcm" `Quick test_lcm;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "divisions" `Quick test_divisions;
          Alcotest.test_case "log2" `Quick test_log2;
          Alcotest.test_case "lists" `Quick test_lists;
        ] );
      ( "q",
        [
          Alcotest.test_case "normalization" `Quick test_q_normalization;
          Alcotest.test_case "arithmetic" `Quick test_q_arith;
          Alcotest.test_case "compare" `Quick test_q_compare;
          Alcotest.test_case "rounding" `Quick test_q_rounding;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "percentile interpolation" `Quick
            test_stats_percentile_interpolation;
          Alcotest.test_case "add after percentile" `Quick test_stats_add_after_percentile;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "variance at large offset" `Quick
            test_stats_variance_large_offset;
          Alcotest.test_case "weighted basics" `Quick
            test_stats_weighted_basics;
        ] );
      ( "mix64",
        [
          Alcotest.test_case "decorrelates consecutive seeds" `Quick
            test_mix64_decorrelates;
          Alcotest.test_case "avalanche" `Quick test_mix64_avalanche;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parallel_for covers every index" `Quick
            test_pool_parallel_for;
          Alcotest.test_case "single domain runs inline" `Quick
            test_pool_single_domain_inline;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "racing errors surface one" `Quick
            test_pool_error_race;
          Alcotest.test_case "empty and bad inputs" `Quick test_pool_empty_and_bad;
        ] );
      ( "stats-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_stats_percentiles_monotone; prop_stats_weighted_equals_expanded ] );
      ( "q-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add_commutative;
            prop_add_associative;
            prop_mul_distributes;
            prop_compare_matches_float;
            prop_floor_ceil;
          ] );
    ]
