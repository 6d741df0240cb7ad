(* Cross-library integration tests: the full pipelines of the paper, each
   layer checked by a component that did not produce it.

   1. Generalized Bdisks: latency-vector conditions -> pinwheel algebra ->
      scheduler -> program -> EXACT ADVERSARY confirms the semantic
      guarantee: with j faults, reconstruction completes within d^(j).
   2. Regular fault-tolerant Bdisks: file specs -> bandwidth search ->
      program -> adversary confirms retrieval within B*T under up to r
      faults.
   3. Bytes over the air: IDA -> program -> lossy channel -> bit-exact
      reconstruction, against the AWACS database built by the rtdb layer. *)

module File_spec = Pindisk.File_spec
module Bandwidth = Pindisk.Bandwidth
module Program = Pindisk.Program
module Generalized = Pindisk.Generalized
module Bc = Pindisk_algebra.Bc
module Adversary = Pindisk_sim.Adversary
module Fault = Pindisk_sim.Fault
module Transport = Pindisk_sim.Transport
module Item = Pindisk_rtdb.Item
module Mode = Pindisk_rtdb.Mode
module Database = Pindisk_rtdb.Database
module Aida = Pindisk_ida.Aida

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* 1. The generalized model's semantic guarantee                       *)
(* ------------------------------------------------------------------ *)

(* bc(i, m, [d0; d1; ...; dr]) promises: even with j lost blocks, any m
   good blocks arrive within d^(j) slots of tuning in -- provided the
   program's capacity gives j spare distinct blocks. The adversary
   computes the true worst case; it must not exceed d^(j). *)
let assert_generalized_guarantee specs =
  match Generalized.program specs with
  | None -> Alcotest.fail "generalized program must exist"
  | Some program ->
      List.iter
        (fun spec ->
          let bc = spec.Generalized.bc in
          let m = bc.Bc.m in
          Array.iteri
            (fun j dj ->
              let worst =
                Adversary.worst_case_retrieval program ~file:bc.Bc.file
                  ~needed:m ~errors:j
              in
              if worst > dj then
                Alcotest.failf
                  "file %d with %d faults: worst-case retrieval %d > d^(%d) = %d"
                  bc.Bc.file j worst j dj)
            bc.Bc.d)
        specs

let test_generalized_guarantee_single () =
  assert_generalized_guarantee
    [ Generalized.spec (Bc.make ~file:0 ~m:2 ~d:[ 8; 10; 14 ]) ]

let test_generalized_guarantee_example4 () =
  (* The paper's Example 4 condition, on the air. *)
  assert_generalized_guarantee
    [ Generalized.spec (Bc.make ~file:0 ~m:4 ~d:[ 8; 9 ]) ]

let test_generalized_guarantee_mixed () =
  assert_generalized_guarantee
    [
      Generalized.spec (Bc.make ~file:0 ~m:1 ~d:[ 4; 6 ]);
      Generalized.spec (Bc.make ~file:1 ~m:2 ~d:[ 12; 16; 20 ]);
      Generalized.spec (Bc.make ~file:2 ~m:3 ~d:[ 40 ]);
    ]

let test_generalized_guarantee_random () =
  let rng = Random.State.make [| 2025 |] in
  for _ = 1 to 15 do
    let n = 1 + Random.State.int rng 3 in
    let specs =
      List.init n (fun file ->
          let m = 1 + Random.State.int rng 3 in
          let r = Random.State.int rng 3 in
          let d0 = (m * (3 + Random.State.int rng 6)) + Random.State.int rng 4 in
          let rec vec prev j =
            if j > r then []
            else
              let dj = prev + 1 + Random.State.int rng 5 in
              dj :: vec dj (j + 1)
          in
          Generalized.spec (Bc.make ~file ~m ~d:(d0 :: vec d0 1)))
    in
    match Generalized.program specs with
    | None -> () (* heuristic may fail; soundness is what we test *)
    | Some _ -> assert_generalized_guarantee specs
  done

(* ------------------------------------------------------------------ *)
(* 2. Regular fault-tolerant Bdisks end to end                         *)
(* ------------------------------------------------------------------ *)

let test_regular_guarantee () =
  let files =
    [
      File_spec.make ~id:0 ~blocks:2 ~latency:4 ~tolerance:2 ();
      File_spec.make ~id:1 ~blocks:3 ~latency:9 ~tolerance:1 ();
    ]
  in
  match Program.auto files with
  | None -> Alcotest.fail "program must exist"
  | Some (b, program) ->
      List.iter
        (fun f ->
          let window = File_spec.window f ~bandwidth:b in
          for j = 0 to f.File_spec.tolerance do
            let worst =
              Adversary.worst_case_retrieval program ~file:f.File_spec.id
                ~needed:f.File_spec.blocks ~errors:j
            in
            check_bool
              (Printf.sprintf "file %d, %d faults: %d <= %d" f.File_spec.id j
                 worst window)
              true (worst <= window)
          done)
        files

(* ------------------------------------------------------------------ *)
(* 3. The AWACS database, bytes on the air                             *)
(* ------------------------------------------------------------------ *)

let test_awacs_bytes_end_to_end () =
  let items =
    [
      Item.make ~id:0 ~name:"aircraft" ~blocks:2 ~avi:4 ();
      Item.make ~id:1 ~name:"tank" ~blocks:2 ~avi:60 ();
    ]
  in
  let combat =
    Mode.make ~name:"combat" ~default:Aida.Standard
      [ ("aircraft", Aida.Critical 2) ]
  in
  let db = Database.create ~items ~modes:[ combat ] in
  match Database.program db ~mode:combat with
  | None -> Alcotest.fail "combat program must exist"
  | Some (_, program) ->
      let aircraft_feed = Bytes.of_string "bogey 37.77N 122.42W 9000ft 870kt" in
      let tank_feed = Bytes.of_string "armor column grid QRF-7" in
      let transport =
        Transport.create ~program [ (0, 2, aircraft_feed); (1, 2, tank_feed) ]
      in
      (* A client behind 25% loss still reconstructs both items exactly. *)
      for seed = 0 to 9 do
        (match
           Transport.retrieve transport ~file:0 ~start:(3 * seed)
             ~fault:(Fault.bernoulli ~p:0.25 ~seed) ()
         with
        | Ok bytes -> check_bool "aircraft exact" true (Bytes.equal bytes aircraft_feed)
        | Error _ -> Alcotest.fail "aircraft retrieval starved");
        match
          Transport.retrieve transport ~file:1 ~start:(7 * seed)
            ~fault:(Fault.bernoulli ~p:0.25 ~seed:(seed + 100)) ()
        with
        | Ok bytes -> check_bool "tank exact" true (Bytes.equal bytes tank_feed)
        | Error _ -> Alcotest.fail "tank retrieval starved"
      done

(* ------------------------------------------------------------------ *)
(* 4. Mode switches never strand a client                              *)
(* ------------------------------------------------------------------ *)

(* The Database provisions dispersal for the WORST mode, so switching the
   broadcast program mid-retrieval leaves every already-collected piece
   usable: indices are self-identifying and the dispersal never changes.
   A client that gathers pieces across the landing->combat switch must
   still reconstruct bit-exactly. *)
let test_mode_switch_mid_retrieval () =
  let module Ida = Pindisk_ida.Ida in
  let items =
    [
      Item.make ~id:0 ~name:"aircraft" ~blocks:3 ~avi:6 ();
      Item.make ~id:1 ~name:"terrain" ~blocks:4 ~avi:40 ();
    ]
  in
  let combat =
    Mode.make ~name:"combat" ~default:Aida.Standard [ ("aircraft", Aida.Critical 2) ]
  in
  let landing = Mode.make ~name:"landing" [ ("terrain", Aida.Standard) ] in
  let db = Database.create ~items ~modes:[ combat; landing ] in
  let _, p_landing = Option.get (Database.program db ~mode:landing) in
  let _, p_combat = Option.get (Database.program db ~mode:combat) in
  let aircraft = List.hd items in
  let capacity = Database.provisioned_capacity db aircraft in
  let content = Bytes.of_string "bogey at angels twelve" in
  let ida = Ida.create ~m:3 in
  let pieces = Ida.disperse ida ~n:capacity content in
  (* Collect pieces: a few slots under the landing program, then switch. *)
  let collected = Hashtbl.create 8 in
  let harvest program from until =
    for t = from to until do
      match Program.block_at program t with
      | Some (0, idx) -> Hashtbl.replace collected idx pieces.(idx)
      | Some _ | None -> ()
    done
  in
  harvest p_landing 0 1;
  let before_switch = Hashtbl.length collected in
  check_bool "partial before switch" true (before_switch < 3);
  let t = ref 0 in
  while Hashtbl.length collected < 3 do
    harvest p_combat !t !t;
    incr t
  done;
  let got = Hashtbl.fold (fun _ p acc -> p :: acc) collected [] in
  check_bool "bit-exact across the switch" true
    (Bytes.equal (Ida.reconstruct ida ~length:(Bytes.length content) got) content)

let () =
  Alcotest.run "integration"
    [
      ( "generalized-guarantee",
        [
          Alcotest.test_case "single file" `Quick test_generalized_guarantee_single;
          Alcotest.test_case "paper example 4" `Quick test_generalized_guarantee_example4;
          Alcotest.test_case "mixed vectors" `Quick test_generalized_guarantee_mixed;
          Alcotest.test_case "randomized" `Slow test_generalized_guarantee_random;
        ] );
      ( "regular-guarantee",
        [ Alcotest.test_case "within B*T under faults" `Quick test_regular_guarantee ] );
      ( "bytes-on-air",
        [ Alcotest.test_case "AWACS end to end" `Quick test_awacs_bytes_end_to_end ] );
      ( "mode-switch",
        [ Alcotest.test_case "mid-retrieval switch" `Quick test_mode_switch_mid_retrieval ] );
    ]
