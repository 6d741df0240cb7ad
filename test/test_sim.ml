module Program = Pindisk.Program
module Bounds = Pindisk.Bounds
module Fault = Pindisk_sim.Fault
module Client = Pindisk_sim.Client
module Adversary = Pindisk_sim.Adversary
module Experiment = Pindisk_sim.Experiment

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* [Client.retrieve] on a request the test knows to be well-formed. *)
let retrieve_ok ?max_slots ~program ~file ~needed ~start ~fault () =
  match Client.retrieve ?max_slots ~program ~file ~needed ~start ~fault () with
  | Ok o -> o
  | Error e -> Alcotest.failf "unexpected error: %a" Client.pp_error e

let toy_layout =
  [ (0, 0); (1, 0); (0, 1); (0, 2); (1, 1); (0, 3); (1, 2); (0, 4) ]

let toy_flat () = Program.of_layout toy_layout ~capacities:[ (0, 5); (1, 3) ]
let toy_ida () = Program.of_layout toy_layout ~capacities:[ (0, 10); (1, 6) ]

(* ------------------------------------------------------------------ *)
(* Fault                                                               *)
(* ------------------------------------------------------------------ *)

let test_fault_none () =
  let f = Fault.none () in
  for _ = 1 to 100 do
    check_bool "never loses" false (Fault.advance f)
  done

let test_fault_deterministic () =
  let f = Fault.deterministic (fun t -> t mod 3 = 1) in
  Alcotest.(check (list bool)) "scripted" [ false; true; false; false; true ]
    (List.init 5 (fun _ -> Fault.advance f));
  Fault.reset_to f 1;
  check_bool "reset re-anchors" true (Fault.advance f)

let test_fault_bernoulli_reproducible () =
  let f1 = Fault.bernoulli ~p:0.3 ~seed:7 in
  let f2 = Fault.bernoulli ~p:0.3 ~seed:7 in
  let a = List.init 200 (fun _ -> Fault.advance f1) in
  let b = List.init 200 (fun _ -> Fault.advance f2) in
  check_bool "same seed, same losses" true (a = b);
  Fault.reset_to f1 0;
  let a' = List.init 200 (fun _ -> Fault.advance f1) in
  check_bool "reset replays" true (a = a')

let test_fault_bernoulli_rate () =
  let f = Fault.bernoulli ~p:0.25 ~seed:42 in
  let n = 20_000 in
  let losses = ref 0 in
  for _ = 1 to n do
    if Fault.advance f then incr losses
  done;
  let rate = float_of_int !losses /. float_of_int n in
  check_bool "empirical rate near 0.25" true (abs_float (rate -. 0.25) < 0.02);
  Alcotest.(check (float 1e-9)) "declared rate" 0.25 (Fault.loss_rate f)

let test_fault_burst_stationary_rate () =
  let f =
    Fault.burst ~p_good_to_bad:0.1 ~p_bad_to_good:0.4 ~loss_good:0.0
      ~loss_bad:0.5 ~seed:1
  in
  (* pi_bad = 0.1 / 0.5 = 0.2; rate = 0.2 * 0.5 = 0.1. *)
  Alcotest.(check (float 1e-9)) "stationary rate" 0.1 (Fault.loss_rate f);
  let n = 50_000 in
  let losses = ref 0 in
  for _ = 1 to n do
    if Fault.advance f then incr losses
  done;
  let rate = float_of_int !losses /. float_of_int n in
  check_bool "empirical near stationary" true (abs_float (rate -. 0.1) < 0.02)

let test_fault_validation () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Fault.bernoulli: p must be in [0, 1]") (fun () ->
      ignore (Fault.bernoulli ~p:1.5 ~seed:0));
  (* NaN fails both [v < 0] and [v > 1], so it needs its own check. *)
  Alcotest.check_raises "p nan"
    (Invalid_argument "Fault.bernoulli: p must be in [0, 1]") (fun () ->
      ignore (Fault.bernoulli ~p:Float.nan ~seed:0));
  let burst ?(gb = 0.1) ?(bg = 0.1) ?(lg = 0.1) ?(lb = 0.1) () =
    ignore
      (Fault.burst ~p_good_to_bad:gb ~p_bad_to_good:bg ~loss_good:lg
         ~loss_bad:lb ~seed:0)
  in
  let raises name f =
    Alcotest.check_raises (name ^ " nan")
      (Invalid_argument
         (Printf.sprintf "Fault.burst: %s must be in [0, 1]" name))
      f
  in
  raises "p_good_to_bad" (fun () -> burst ~gb:Float.nan ());
  raises "p_bad_to_good" (fun () -> burst ~bg:Float.nan ());
  raises "loss_good" (fun () -> burst ~lg:Float.nan ());
  raises "loss_bad" (fun () -> burst ~lb:Float.nan ());
  Alcotest.check_raises "negative skip"
    (Invalid_argument "Fault.skip: negative slot count") (fun () ->
      Fault.skip (Fault.none ()) (-1))

let test_fault_reset_to_determinism () =
  (* Regression: [reset_to] must re-anchor the process deterministically —
     the same slot always replays the identical loss sequence, whatever
     state (RNG stream, burst good/bad) the process wandered into before
     the reset. The adaptive driver's channel scripts rely on this. *)
  let record f n = List.init n (fun _ -> Fault.advance f) in
  let check_replay name mk =
    let f = mk () in
    ignore (record f 137);
    (* wander into an arbitrary interior state *)
    Fault.reset_to f 137;
    let a = record f 200 in
    Fault.reset_to f 137;
    let b = record f 200 in
    check_bool (name ^ ": same process replays from the same slot") true
      (a = b);
    let g = mk () in
    Fault.reset_to g 137;
    let c = record g 200 in
    check_bool (name ^ ": fresh process agrees") true (a = c)
  in
  check_replay "bernoulli" (fun () -> Fault.bernoulli ~p:0.3 ~seed:11);
  check_replay "burst" (fun () ->
      Fault.burst ~p_good_to_bad:0.2 ~p_bad_to_good:0.3 ~loss_good:0.05
        ~loss_bad:0.6 ~seed:11)

(* The documented verdict function [Fault] is pinned to, written out
   from fault.mli: a stream started at slot o has the key
   mix64 (mix64 (seed lxor gamma) + o), and its counter c reads the
   53-bit integer n_c = mix64 (key + c·gamma) lsr 9. The verdict at
   slot o + i compares the float u = n_i·2⁻⁵³ with the loss
   probability. The burst chain is good at relative slot -1; its j-th
   sojourn (j = 1, 2, …) reads counter -j as u = (n + 1)·2⁻⁵³ and lasts
   1 + ⌊log u / log (1 - q)⌋ slots in a state left with probability q
   (never when q = 0 or past 2⁶⁰), and each slot is judged in the state
   in force at it. [n] verdicts from slot [slot]. *)
type fault_model =
  | Ref_bernoulli of float
  | Ref_burst of { gb : float; bg : float; lg : float; lb : float }

let fault_of_ref ~seed = function
  | Ref_bernoulli p -> Fault.bernoulli ~p ~seed
  | Ref_burst { gb; bg; lg; lb } ->
      Fault.burst ~p_good_to_bad:gb ~p_bad_to_good:bg ~loss_good:lg
        ~loss_bad:lb ~seed

let reference_uniform ~seed ~slot =
  let mix = Pindisk_util.Intmath.mix64 in
  let gamma = 0x278dde6e5fd29f05 in
  let key = mix (mix (seed lxor gamma) + slot) in
  fun c -> Float.ldexp (float_of_int (mix (key + (c * gamma)) lsr 9)) (-53)

let reference_verdicts model ~seed ~slot n =
  let u = reference_uniform ~seed ~slot in
  match model with
  | Ref_bernoulli p -> Array.init n (fun i -> u i < p)
  | Ref_burst { gb; bg; lg; lb } ->
      let length j q =
        if q = 0.0 then max_int
        else
          let x = Float.log (u (-j) +. 0x1p-53) /. Float.log1p (-.q) in
          if x < 0x1p60 then 1 + int_of_float x else max_int
      in
      let bad = Array.make n false in
      (* Sojourn [j] holds [state] from relative slot [start] on. *)
      let rec fill j state start =
        if start < n then begin
          let l = length j (if state then bg else gb) in
          let stop = if l = max_int then n else min n (start + l) in
          for i = max 0 start to stop - 1 do
            bad.(i) <- state
          done;
          if l <> max_int then fill (j + 1) (not state) (start + l)
        end
      in
      fill 1 false (-1);
      Array.init n (fun i -> u i < if bad.(i) then lb else lg)

let edge_probabilities = [| 0.0; 0x1p-1074; 0x1p-53; 0.5; 1.0 -. 0x1p-53; 1.0 |]

let gen_probability =
  QCheck2.Gen.(oneof [ oneofa edge_probabilities; float_bound_inclusive 1.0 ])

(* [Fault] against the float reference, over random seeds, reset slots
   and lengths, with the probabilities where an integer cut could be
   off by one mixed in: every verdict of a per-slot walk matches, and
   so does every verdict taken after a run of skips. *)
let prop_fault_matches_float_reference =
  let model =
    QCheck2.Gen.(
      oneof
        [
          map (fun p -> Ref_bernoulli p) gen_probability;
          map
            (fun (gb, bg, lg, lb) -> Ref_burst { gb; bg; lg; lb })
            (quad gen_probability gen_probability gen_probability
               gen_probability);
        ])
  in
  QCheck2.Test.make ~name:"fault verdicts match the float reference"
    ~count:300
    QCheck2.Gen.(
      quad model (int_bound 1_000_000) (int_bound 100_000)
        (list_size (int_range 1 40) (int_bound 30)))
    (fun (model, seed, slot, gaps) ->
      let n = List.fold_left (fun acc g -> acc + g + 1) 0 gaps in
      let reference = reference_verdicts model ~seed ~slot n in
      let walked =
        let f = fault_of_ref ~seed model in
        Fault.reset_to f slot;
        Array.init n (fun _ -> Fault.advance f)
      in
      let skipped =
        let f = fault_of_ref ~seed model in
        Fault.reset_to f slot;
        let at = ref 0 in
        List.for_all
          (fun g ->
            Fault.skip f g;
            at := !at + g + 1;
            Fault.advance f = reference.(!at - 1))
          gaps
      in
      (walked = reference && skipped)
      || QCheck2.Test.fail_reportf "diverged from the float reference")

(* Sampling cannot tell [<] from [<=], or a ceiling from a floor, in
   the integer cut: they differ on one draw in 2^53. So put the
   probability exactly on a slot's draw u, and on the floats either side
   of it, and compare with the reference there. *)
let test_fault_cut_exact_at_draw () =
  List.iter
    (fun (seed, slot) ->
      let u = reference_uniform ~seed ~slot 0 in
      check_bool "draw is positive" true (u > 0.0);
      List.iter
        (fun p ->
          let f = Fault.bernoulli ~p ~seed in
          Fault.reset_to f slot;
          check_bool (Printf.sprintf "p = %h" p)
            (reference_verdicts (Ref_bernoulli p) ~seed ~slot 1).(0)
            (Fault.advance f))
        [ Float.pred u; u; Float.succ u ])
    [ (0, 0); (7, 3); (42, 1000); (99_999, 65_535) ]

(* Any interleaving of [skip], [advance] and [reset_to] reads, at each
   judged slot, the verdict a plain [advance] walk from the same origin
   reads there: a verdict depends only on (seed, origin, slot). *)
type fault_op = Skip of int | Advance | Reset of int

let prop_fault_interleavings_read_the_walk =
  let open QCheck2.Gen in
  let chain =
    map
      (fun ((gb, bg, lg, lb), stuck) ->
        match stuck with
        | 0 -> `Burst (0.0, bg, lg, lb) (* never leaves good *)
        | 1 -> `Burst (gb, 0.0, lg, lb) (* never leaves bad once there *)
        | _ -> `Burst (gb, bg, lg, lb))
      (pair
         (quad gen_probability gen_probability gen_probability gen_probability)
         (int_bound 4))
  in
  let model =
    oneof
      [
        pure `None;
        map (fun p -> `Bernoulli p) gen_probability;
        chain;
        map (fun m -> `Deterministic m) (int_range 1 7);
      ]
  in
  let op =
    frequency
      [
        (4, map (fun k -> Skip k) (int_bound 60));
        (1, map (fun k -> Skip k) (int_bound 5_000));
        (5, pure Advance);
        (1, map (fun o -> Reset o) (int_bound 100_000));
      ]
  in
  let make model seed =
    match model with
    | `None -> Fault.none ()
    | `Bernoulli p -> Fault.bernoulli ~p ~seed
    | `Burst (gb, bg, lg, lb) ->
        Fault.burst ~p_good_to_bad:gb ~p_bad_to_good:bg ~loss_good:lg
          ~loss_bad:lb ~seed
    | `Deterministic m ->
        Fault.deterministic (fun t ->
            Pindisk_util.Intmath.mix64 (t + seed) mod m = 0)
  in
  QCheck2.Test.make ~name:"fault interleavings read the plain walk" ~count:400
    (triple model (int_bound 1_000_000) (list_size (int_range 1 60) op))
    (fun (model, seed, ops) ->
      (* The plain walk from each origin, extended on demand. *)
      let walks = Hashtbl.create 4 in
      let walk o i =
        let g, seen =
          match Hashtbl.find_opt walks o with
          | Some w -> w
          | None ->
              let g = make model seed in
              Fault.reset_to g o;
              let w = (g, ref [||]) in
              Hashtbl.add walks o w;
              w
        in
        let have = Array.length !seen in
        if i >= have then
          seen :=
            Array.append !seen
              (Array.init (i + 1 - have) (fun _ -> Fault.advance g));
        !seen.(i)
      in
      let f = make model seed in
      let origin = ref 0 and i = ref 0 in
      List.for_all
        (function
          | Skip k ->
              Fault.skip f k;
              i := !i + k;
              true
          | Reset o ->
              Fault.reset_to f o;
              origin := o;
              i := 0;
              true
          | Advance ->
              let v = Fault.advance f in
              incr i;
              v = walk !origin (!i - 1)
              || QCheck2.Test.fail_reportf "slot %d from origin %d diverged"
                   (!i - 1) !origin)
        ops)

(* A chain that changes state at every slot and loses exactly in the
   bad state: it starts good, and each slot steps before it is judged,
   so the verdicts from any origin read lost, kept, lost, … *)
let test_fault_alternating_chain () =
  List.iter
    (fun (seed, origin) ->
      let f =
        Fault.burst ~p_good_to_bad:1.0 ~p_bad_to_good:1.0 ~loss_good:0.0
          ~loss_bad:1.0 ~seed
      in
      Fault.reset_to f origin;
      let name = Printf.sprintf "seed %d origin %d" seed origin in
      Alcotest.(check (list bool)) name
        (List.init 12 (fun i -> i mod 2 = 0))
        (List.init 12 (fun _ -> Fault.advance f));
      (* relative slots 12..14 skipped, 15 judged *)
      Fault.skip f 3;
      check_bool (name ^ ", after a skip") false (Fault.advance f))
    [ (0, 0); (1, 1); (7, 17); (42, 1_000); (99_999, 65_535) ]

(* The LXM chain [Fault] drew before its verdicts became functions of
   the slot: one [Random.State] stream per (seed, origin), redrawing a
   zero, one draw per Bernoulli slot and two per burst slot (a state
   flip, then a loss judged in the state flipped to). The distribution
   oracle below holds the new verdicts to its law. *)
module Lxm_fault = struct
  let cut p = int_of_float (Float.ceil (Float.ldexp p 53))

  let rec draw rng =
    let n =
      Int64.to_int (Int64.shift_right_logical (Random.State.bits64 rng) 11)
    in
    if n <> 0 then n else draw rng

  (* [n] verdicts from slot 0. *)
  let verdicts model ~seed n =
    let rng = Random.State.make [| seed; 0; 0x5eed |] in
    match model with
    | Ref_bernoulli p ->
        let c = cut p in
        Array.init n (fun _ -> draw rng < c)
    | Ref_burst { gb; bg; lg; lb } ->
        let to_bad = cut gb and to_good = cut bg in
        let cut_good = cut lg and cut_bad = cut lb in
        let bad = ref false in
        Array.init n (fun _ ->
            let flip = draw rng in
            bad := if !bad then flip >= to_good else flip < to_bad;
            draw rng < if !bad then cut_bad else cut_good)
end

(* Per-seed loss counts and loss runs of [seeds] streams of [slots]
   verdicts each, reduced to the loss rate, the mean loss-run length and
   the per-seed standard deviation of the loss rate, each with its
   standard error. *)
let loss_statistics ~seeds ~slots verdicts =
  let rate = Array.make seeds 0.0 and runs = Array.make seeds 0.0 in
  for s = 0 to seeds - 1 do
    let v = verdicts s in
    let losses = ref 0 and starts = ref 0 in
    Array.iteri
      (fun i lost ->
        if lost then begin
          incr losses;
          if i = 0 || not v.(i - 1) then incr starts
        end)
      v;
    rate.(s) <- float_of_int !losses /. float_of_int slots;
    runs.(s) <- float_of_int !starts
  done;
  let n = float_of_int seeds in
  let mean a = Array.fold_left ( +. ) 0.0 a /. n in
  let r = mean rate in
  let central k = mean (Array.map (fun x -> (x -. r) ** k) rate) in
  let var = central 2.0 in
  let sd = sqrt var in
  (* The run length is a ratio of sums; its error by the delta method. *)
  let lost = Array.map (fun x -> x *. float_of_int slots) rate in
  let run_len = mean lost /. mean runs in
  let z = Array.mapi (fun s l -> l -. (run_len *. runs.(s))) lost in
  let run_se = sqrt (mean (Array.map (fun x -> x *. x) z) /. n) /. mean runs in
  [
    ("loss rate", r, sd /. sqrt n);
    ("mean loss run", run_len, run_se);
    ( "per-seed sd",
      sd,
      sqrt ((central 4.0 -. (var *. var)) /. n) /. (2.0 *. sd) );
  ]

let within_five_se name (a, se_a) (b, se_b) =
  let bound = 5.0 *. sqrt ((se_a *. se_a) +. (se_b *. se_b)) in
  if not (Float.abs (a -. b) <= bound) then
    Alcotest.failf "%s: %.5f vs %.5f, more than five standard errors (%.5f)"
      name a b bound

(* The sojourn law, read through a chain whose state is its verdict
   (loss_good = 0, loss_bad = 1): a slot that follows one in state X
   leaves X with probability q, so the mean sojourn slots/leaves is
   1/q. *)
let check_mean_sojourns ~seeds ~slots ~gb ~bg =
  let steps = [| 0; 0 |] and leaves = [| 0; 0 |] in
  for seed = 0 to seeds - 1 do
    let f =
      Fault.burst ~p_good_to_bad:gb ~p_bad_to_good:bg ~loss_good:0.0
        ~loss_bad:1.0 ~seed
    in
    let prev = ref (Fault.advance f) in
    for _ = 2 to slots do
      let now = Fault.advance f in
      let x = Bool.to_int !prev in
      steps.(x) <- steps.(x) + 1;
      if now <> !prev then leaves.(x) <- leaves.(x) + 1;
      prev := now
    done
  done;
  List.iteri
    (fun x q ->
      if q > 0.0 && leaves.(x) > 0 then begin
        let mean = float_of_int steps.(x) /. float_of_int leaves.(x) in
        (* se(1/q̂) = se(q̂)/q² with se(q̂)² = q(1 - q)/steps *)
        let se = sqrt (q *. (1.0 -. q) /. float_of_int steps.(x)) /. (q *. q) in
        within_five_se
          (Printf.sprintf "mean sojourn in %s (%g, %g)"
             (if x = 0 then "good" else "bad") gb bg)
          (mean, 0.0) (1.0 /. q, se)
      end)
    [ gb; bg ]

(* The loss law of the new verdicts against the LXM chain's, over
   20 000 seeds of 1 000 slots: loss rate, mean loss-run length and
   per-seed spread agree within five standard errors, and each chain's
   sojourns have mean 1/q. *)
let test_fault_law_matches_lxm_chain () =
  let seeds = 20_000 and slots = 1_000 in
  List.iter
    (fun model ->
      let name =
        match model with
        | Ref_bernoulli p -> Printf.sprintf "bernoulli %g" p
        | Ref_burst { gb; bg; lg; lb } ->
            Printf.sprintf "burst (%g, %g, %g, %g)" gb bg lg lb
      in
      let lxm =
        loss_statistics ~seeds ~slots (fun seed ->
            Lxm_fault.verdicts model ~seed slots)
      in
      let now =
        loss_statistics ~seeds ~slots (fun seed ->
            let f = fault_of_ref ~seed model in
            Array.init slots (fun _ -> Fault.advance f))
      in
      List.iter2
        (fun (stat, a, se_a) (_, b, se_b) ->
          within_five_se (name ^ ", " ^ stat) (a, se_a) (b, se_b))
        lxm now;
      match model with
      | Ref_burst { gb; bg; _ } -> check_mean_sojourns ~seeds ~slots ~gb ~bg
      | Ref_bernoulli _ -> ())
    [
      Ref_bernoulli 0.05;
      Ref_bernoulli 0.4;
      Ref_burst { gb = 0.3; bg = 0.1; lg = 0.0; lb = 0.533 };
      Ref_burst { gb = 0.01; bg = 0.1; lg = 0.02; lb = 0.6 };
      Ref_burst { gb = 0.001; bg = 0.1; lg = 0.02; lb = 0.5 };
      Ref_burst { gb = 0.5; bg = 0.5; lg = 0.1; lb = 0.9 };
    ]

let test_fault_deterministic_skip () =
  let calls = ref [] in
  let f =
    Fault.deterministic (fun t ->
        calls := t :: !calls;
        t mod 3 = 1)
  in
  Fault.reset_to f 5;
  Fault.skip f 0;
  Fault.skip f 2;
  check_bool "slot 7 judged" true (Fault.advance f);
  Fault.skip f 1;
  check_bool "slot 9 judged" false (Fault.advance f);
  Alcotest.(check (list int)) "f read only at judged slots" [ 9; 7 ] !calls;
  Fault.reset_to f 0;
  Alcotest.(check (list bool)) "skip 0 then walk" [ false; true; false ]
    (Fault.skip f 0;
     List.init 3 (fun _ -> Fault.advance f))

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

let test_client_error_free () =
  let p = toy_ida () in
  (* Tuning in at slot 0, file A needs 5 distinct blocks: occurrences at
     0,2,3,5,7 -> done at slot 7, elapsed 8. *)
  let o = retrieve_ok ~program:p ~file:0 ~needed:5 ~start:0 ~fault:(Fault.none ()) () in
  Alcotest.(check (option int)) "completed at 7" (Some 7) o.Client.completed_at;
  Alcotest.(check (option int)) "elapsed 8" (Some 8) o.Client.elapsed;
  check_int "receptions" 5 o.Client.receptions;
  check_int "losses" 0 o.Client.losses

let test_client_b_from_slot_2 () =
  let p = toy_ida () in
  (* File B occurrences at 1,4,6 (blocks B1,B2,B3). From slot 2: B at 4, 6,
     9 -> elapsed 8. *)
  let o = retrieve_ok ~program:p ~file:1 ~needed:3 ~start:2 ~fault:(Fault.none ()) () in
  Alcotest.(check (option int)) "completed at 9" (Some 9) o.Client.completed_at;
  Alcotest.(check (option int)) "elapsed 8" (Some 8) o.Client.elapsed

let test_client_single_loss_ida_vs_flat () =
  (* Lose the very first A reception. With IDA the replacement is the next
     A block (2 slots later); without IDA block A1 only returns a full
     period later. *)
  let lose_first = Fault.deterministic (fun t -> t = 0) in
  let o_ida =
    retrieve_ok ~program:(toy_ida ()) ~file:0 ~needed:5 ~start:0 ~fault:lose_first ()
  in
  Alcotest.(check (option int)) "ida: done at 8" (Some 8) o_ida.Client.completed_at;
  check_int "one loss" 1 o_ida.Client.losses;
  let lose_first' = Fault.deterministic (fun t -> t = 0) in
  let o_flat =
    retrieve_ok ~program:(toy_flat ()) ~file:0 ~needed:5 ~start:0 ~fault:lose_first' ()
  in
  (* A1 returns at slot 8. *)
  Alcotest.(check (option int)) "flat: done at 8" (Some 8) o_flat.Client.completed_at

let test_client_flat_worst_loss () =
  (* Losing the LAST needed block of the flat program costs a full period:
     A5 at slot 7 lost -> A5 returns at slot 15. *)
  let lose = Fault.deterministic (fun t -> t = 7) in
  let o =
    retrieve_ok ~program:(toy_flat ()) ~file:0 ~needed:5 ~start:0 ~fault:lose ()
  in
  Alcotest.(check (option int)) "done at 15" (Some 15) o.Client.completed_at;
  (* Same loss under IDA: A6 arrives at slot 8. *)
  let lose' = Fault.deterministic (fun t -> t = 7) in
  let o' =
    retrieve_ok ~program:(toy_ida ()) ~file:0 ~needed:5 ~start:0 ~fault:lose' ()
  in
  Alcotest.(check (option int)) "ida done at 8" (Some 8) o'.Client.completed_at

let test_client_max_slots () =
  let all_lost = Fault.deterministic (fun _ -> true) in
  let o =
    retrieve_ok ~max_slots:50 ~program:(toy_ida ()) ~file:0 ~needed:5 ~start:0
      ~fault:all_lost ()
  in
  check_bool "never completes" true (o.Client.completed_at = None);
  check_bool "deadline missed" false (Client.deadline_met o ~deadline:1000)

let check_client_error = Alcotest.(check (result reject (of_pp Client.pp_error)))

let test_client_retrieve_checked () =
  (* A request the client could never serve is a typed error... *)
  check_client_error "unknown file" (Error Client.Unknown_file)
    (Client.retrieve ~program:(toy_flat ()) ~file:9 ~needed:1 ~start:0
       ~fault:(Fault.none ()) ());
  check_client_error "needed beyond capacity"
    (Error (Client.Needed_exceeds_capacity 5))
    (Client.retrieve ~program:(toy_flat ()) ~file:0 ~needed:6 ~start:0
       ~fault:(Fault.none ()) ());
  check_client_error "needed below one"
    (Error (Client.Bad_request "needed must be >= 1"))
    (Client.retrieve ~program:(toy_flat ()) ~file:0 ~needed:0 ~start:0
       ~fault:(Fault.none ()) ());
  check_client_error "negative start" (Error (Client.Bad_request "negative start"))
    (Client.retrieve ~program:(toy_flat ()) ~file:0 ~needed:5 ~start:(-1)
       ~fault:(Fault.none ()) ());
  (* ...and a well-formed one is the plain simulation: file A's five
     distinct blocks air at 0,2,3,5,7. *)
  match
    Client.retrieve ~program:(toy_flat ()) ~file:0 ~needed:5 ~start:0
      ~fault:(Fault.none ()) ()
  with
  | Error e -> Alcotest.failf "unexpected error: %a" Client.pp_error e
  | Ok o ->
      Alcotest.(check (option int)) "completed at 7" (Some 7) o.Client.completed_at;
      check_int "receptions" 5 o.Client.receptions;
      check_int "losses" 0 o.Client.losses

let test_client_validation () =
  (* The population runners turn the client's typed errors into the
     Invalid_argument they document. *)
  let bad = [ { Pindisk_sim.Workload.issued = 0; file = 9; needed = 1; deadline = 5 } ] in
  Alcotest.check_raises "Engine.run raises"
    (Invalid_argument "Engine.run: file not in program") (fun () ->
      ignore
        (Pindisk_sim.Engine.run ~program:(toy_flat ())
           ~fault:(fun ~seed:_ -> Fault.none ()) ~seed:0 bad));
  Alcotest.check_raises "Experiment.run raises"
    (Invalid_argument "Experiment.run: needed exceeds the file's capacity")
    (fun () ->
      ignore
        (Experiment.run ~program:(toy_flat ()) ~file:0 ~needed:6 ~deadline:5
           ~fault:(fun ~seed:_ -> Fault.none ()) ~trials:1 ~seed:0))

(* ------------------------------------------------------------------ *)
(* Adversary                                                           *)
(* ------------------------------------------------------------------ *)

let test_adversary_error_free_matches_lemma () =
  (* Error-free worst-case retrieval of the toy files is one period. *)
  check_int "A error-free" 8
    (Adversary.worst_case_retrieval (toy_ida ()) ~file:0 ~needed:5 ~errors:0);
  check_int "B error-free" 8
    (Adversary.worst_case_retrieval (toy_ida ()) ~file:1 ~needed:3 ~errors:0)

let test_adversary_flat_is_lemma1_tight () =
  (* Figure 7, "Without IDA" column: delay is exactly r * tau = 8r. *)
  let p = toy_flat () in
  List.iter
    (fun r ->
      check_int
        (Printf.sprintf "flat delay r=%d" r)
        (Bounds.lemma1 ~period:8 ~errors:r)
        (Adversary.worst_case_delay p ~file:0 ~needed:5 ~errors:r))
    [ 0; 1; 2; 3; 4; 5 ]

let test_adversary_ida_beats_flat () =
  let ida = toy_ida () and flat = toy_flat () in
  List.iter
    (fun r ->
      let d_ida = Adversary.worst_case_delay ida ~file:0 ~needed:5 ~errors:r in
      let d_flat = Adversary.worst_case_delay flat ~file:0 ~needed:5 ~errors:r in
      check_bool (Printf.sprintf "ida <= flat at r=%d" r) true (d_ida <= d_flat))
    [ 1; 2; 3; 4; 5 ]

let test_adversary_lemma2_bound_within_redundancy () =
  (* Lemma 2: delay <= r * Delta, valid while r <= capacity - needed (AIDA
     provides r spare blocks). File A: Delta = 2, spare = 5. *)
  let ida = toy_ida () in
  List.iter
    (fun r ->
      let d = Adversary.worst_case_delay ida ~file:0 ~needed:5 ~errors:r in
      check_bool
        (Printf.sprintf "A delay %d <= 2r at r=%d" d r)
        true
        (d <= Bounds.lemma2 ~delta:2 ~errors:r))
    [ 0; 1; 2; 3; 4; 5 ];
  (* File B: Delta = 3, spare = 3: bound holds for r <= 3... *)
  List.iter
    (fun r ->
      let d = Adversary.worst_case_delay ida ~file:1 ~needed:3 ~errors:r in
      check_bool
        (Printf.sprintf "B delay %d <= 3r at r=%d" d r)
        true
        (d <= Bounds.lemma2 ~delta:3 ~errors:r))
    [ 0; 1; 2; 3 ];
  (* ... and genuinely breaks beyond the redundancy (r = 4 > spare): the
     client must wait for a repeat. This is the implicit AIDA assumption in
     the lemma. *)
  let d4 = Adversary.worst_case_delay ida ~file:1 ~needed:3 ~errors:4 in
  check_bool "beyond redundancy the bound fails" true
    (d4 > Bounds.lemma2 ~delta:3 ~errors:4)

let test_adversary_dominates_random_clients () =
  (* No stochastic run may ever exceed the adversarial worst case with the
     same number of losses. *)
  let p = toy_ida () in
  let rng = Random.State.make [| 99 |] in
  for _ = 1 to 200 do
    let start = Random.State.int rng 16 in
    let seed = Random.State.int rng 10_000 in
    let fault = Fault.bernoulli ~p:0.2 ~seed in
    let o = retrieve_ok ~program:p ~file:0 ~needed:5 ~start ~fault () in
    match (o.Client.elapsed, o.Client.losses) with
    | Some e, losses when losses <= 5 ->
        let wc = Adversary.worst_case_retrieval p ~file:0 ~needed:5 ~errors:losses in
        check_bool "bounded by adversary" true (e <= wc)
    | _ -> ()
  done

let test_adversary_validation () =
  Alcotest.check_raises "capacity too large"
    (Invalid_argument "Adversary: capacity 30 exceeds the supported 20")
    (fun () ->
      let p = Program.of_layout [ (0, 0) ] ~capacities:[ (0, 30) ] in
      ignore (Adversary.worst_case_retrieval p ~file:0 ~needed:1 ~errors:0))

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)
(* ------------------------------------------------------------------ *)

module Transport = Pindisk_sim.Transport
module Ida = Pindisk_ida.Ida

let toy_transport () =
  Transport.create ~program:(toy_ida ())
    [
      (0, 5, Bytes.of_string "intelligent vehicle highway system db");
      (1, 3, Bytes.of_string "awacs feed");
    ]

let test_transport_on_air () =
  let t = toy_transport () in
  (match Transport.on_air t 0 with
  | Some (0, piece) -> check_int "slot 0 carries A piece 0" 0 piece.Ida.index
  | _ -> Alcotest.fail "slot 0 is file A");
  (match Transport.on_air t 8 with
  | Some (0, piece) -> check_int "slot 8 carries A piece 5" 5 piece.Ida.index
  | _ -> Alcotest.fail "slot 8 is file A")

let test_transport_roundtrip_error_free () =
  let t = toy_transport () in
  (match Transport.retrieve t ~file:0 ~start:3 ~fault:(Fault.none ()) with
  | Ok bytes ->
      Alcotest.(check string) "bytes back" "intelligent vehicle highway system db"
        (Bytes.to_string bytes)
  | Error _ -> Alcotest.fail "retrieval must complete");
  match Transport.retrieve t ~file:1 ~start:5 ~fault:(Fault.none ()) with
  | Ok bytes -> Alcotest.(check string) "B back" "awacs feed" (Bytes.to_string bytes)
  | Error _ -> Alcotest.fail "retrieval must complete"

let test_transport_roundtrip_under_loss () =
  let t = toy_transport () in
  (* 20% iid loss: IDA redundancy still reconstructs, bit-exact. *)
  for seed = 0 to 19 do
    match
      Transport.retrieve t ~file:0 ~start:(seed mod 16)
        ~fault:(Fault.bernoulli ~p:0.2 ~seed)
    with
    | Ok bytes ->
        Alcotest.(check string) "bit-exact under loss"
          "intelligent vehicle highway system db" (Bytes.to_string bytes)
    | Error _ -> Alcotest.fail "20% loss must not exhaust 100 data cycles"
  done

let test_transport_validation () =
  Alcotest.check_raises "missing content"
    (Invalid_argument "Transport.create: no content for file 1") (fun () ->
      ignore
        (Transport.create ~program:(toy_ida ()) [ (0, 5, Bytes.of_string "x") ]));
  Alcotest.check_raises "m beyond capacity"
    (Invalid_argument "Transport.create: need 1 <= m <= capacity") (fun () ->
      ignore
        (Transport.create ~program:(toy_ida ())
           [ (0, 11, Bytes.of_string "x"); (1, 3, Bytes.of_string "y") ]))

(* ------------------------------------------------------------------ *)
(* Experiment                                                          *)
(* ------------------------------------------------------------------ *)

let test_experiment_error_free () =
  let s =
    Experiment.run ~program:(toy_ida ()) ~file:0 ~needed:5 ~deadline:8
      ~fault:(fun ~seed:_ -> Fault.none ())
      ~trials:100 ~seed:5
  in
  check_int "all complete" 100 s.Experiment.completed;
  check_int "no misses at deadline 8" 0 s.Experiment.missed_deadline;
  check_bool "mean within [5, 8]" true
    (s.Experiment.mean_latency >= 5.0 && s.Experiment.mean_latency <= 8.0)

let test_experiment_lossy_monotone () =
  (* Higher loss rates cannot improve the miss ratio (statistically; use
     well-separated rates and plenty of trials). *)
  let run p_loss =
    Experiment.run ~program:(toy_ida ()) ~file:0 ~needed:5 ~deadline:10
      ~fault:(fun ~seed -> Fault.bernoulli ~p:p_loss ~seed)
      ~trials:400 ~seed:11
  in
  let low = run 0.05 and high = run 0.5 in
  check_bool "monotone misses" true
    (Experiment.miss_ratio low <= Experiment.miss_ratio high +. 1e-9);
  check_bool "reproducible" true (run 0.05 = low)

let test_experiment_ida_beats_flat_under_loss () =
  let run program =
    Experiment.run ~program ~file:0 ~needed:5 ~deadline:12
      ~fault:(fun ~seed -> Fault.bernoulli ~p:0.15 ~seed)
      ~trials:500 ~seed:23
  in
  let ida = run (toy_ida ()) and flat = run (toy_flat ()) in
  check_bool "ida misses fewer deadlines" true
    (Experiment.miss_ratio ida <= Experiment.miss_ratio flat)

(* ------------------------------------------------------------------ *)
(* Transaction                                                         *)
(* ------------------------------------------------------------------ *)

module Transaction = Pindisk_sim.Transaction

let both_reads =
  [
    { Transaction.file = 0; needed = 5; tolerate = 0 };
    { Transaction.file = 1; needed = 3; tolerate = 0 };
  ]

let test_transaction_concurrent_harvest () =
  (* One pass over the toy program collects BOTH files: from slot 0, A
     finishes at slot 7 and B at slot 6, so the transaction finishes at
     slot 7 -- not the 15 a sequential reader would need. *)
  let p = toy_ida () in
  let o =
    Transaction.retrieve ~program:p ~reads:both_reads ~start:0
      ~fault:(Fault.none ())
  in
  Alcotest.(check (option int)) "done at 7" (Some 7) o.Transaction.completed_at;
  Alcotest.(check (option int)) "elapsed 8" (Some 8) o.Transaction.elapsed

let test_transaction_worst_case_is_max_not_sum () =
  let p = toy_ida () in
  let wc = Transaction.worst_case p ~reads:both_reads in
  let wa = Adversary.worst_case_retrieval p ~file:0 ~needed:5 ~errors:0 in
  let wb = Adversary.worst_case_retrieval p ~file:1 ~needed:3 ~errors:0 in
  check_bool "at least each read's worst case" true (wc >= max wa wb);
  check_bool "well below the sum" true (wc < wa + wb)

let test_transaction_worst_case_dominates_simulation () =
  let p = toy_ida () in
  let reads =
    [
      { Transaction.file = 0; needed = 5; tolerate = 2 };
      { Transaction.file = 1; needed = 3; tolerate = 1 };
    ]
  in
  let wc = Transaction.worst_case p ~reads in
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 150 do
    let start = Random.State.int rng 16 in
    let o =
      Transaction.retrieve ~program:p ~reads ~start
        ~fault:(Fault.bernoulli ~p:0.1 ~seed:(Random.State.int rng 99999))
    in
    (* Only runs whose per-file losses stay within the budgets are
       covered by the guarantee; losses are per-channel here so use the
       total as a conservative filter. *)
    match o.Transaction.elapsed with
    | Some e when o.Transaction.losses <= 1 ->
        check_bool "within worst case" true (e <= wc)
    | _ -> ()
  done

let test_transaction_shared_budget () =
  let p = toy_ida () in
  (* Zero shared budget = the fault-free joint worst case. *)
  check_int "shared 0 = per-file 0"
    (Transaction.worst_case p ~reads:both_reads)
    (Transaction.worst_case_shared p ~reads:both_reads ~errors:0);
  (* A shared budget dominates any split of the same total. *)
  let shared = Transaction.worst_case_shared p ~reads:both_reads ~errors:3 in
  List.iter
    (fun (ra, rb) ->
      let split =
        Transaction.worst_case p
          ~reads:
            [
              { Transaction.file = 0; needed = 5; tolerate = ra };
              { Transaction.file = 1; needed = 3; tolerate = rb };
            ]
      in
      check_bool
        (Printf.sprintf "shared >= split (%d,%d)" ra rb)
        true (shared >= split))
    [ (0, 3); (1, 2); (2, 1); (3, 0) ];
  check_bool "shared grows with budget" true
    (Transaction.worst_case_shared p ~reads:both_reads ~errors:1 <= shared)

let test_transaction_validation () =
  let p = toy_ida () in
  Alcotest.check_raises "duplicate files" (Invalid_argument "Transaction: duplicate files")
    (fun () ->
      ignore
        (Transaction.worst_case p
           ~reads:
             [
               { Transaction.file = 0; needed = 1; tolerate = 0 };
               { Transaction.file = 0; needed = 2; tolerate = 0 };
             ]));
  Alcotest.check_raises "empty" (Invalid_argument "Transaction: empty read set")
    (fun () -> ignore (Transaction.worst_case p ~reads:[]))

let test_transaction_starved () =
  let p = toy_ida () in
  let o =
    Transaction.retrieve ~program:p ~reads:both_reads ~start:0
      ~fault:(Fault.deterministic (fun _ -> true))
  in
  check_bool "never completes under total loss" true (o.Transaction.elapsed = None)

(* ------------------------------------------------------------------ *)
(* Workload + Engine                                                   *)
(* ------------------------------------------------------------------ *)

module Workload = Pindisk_sim.Workload
module Engine = Pindisk_sim.Engine
module Stats = Pindisk_util.Stats

let trace_for program =
  Workload.generate ~program ~rate:0.2 ~theta:0.8
    ~needed_of:(fun f -> if f = 0 then 5 else 3)
    ~deadline_of:(fun f -> if f = 0 then 10 else 12)
    ~horizon:2000 ~seed:4

let test_workload_deterministic_and_sorted () =
  let p = toy_ida () in
  let t1 = trace_for p and t2 = trace_for p in
  check_bool "deterministic" true (t1 = t2);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Workload.issued <= b.Workload.issued && sorted rest
    | _ -> true
  in
  check_bool "sorted by issue slot" true (sorted t1);
  check_bool "non-empty" true (List.length t1 > 200);
  List.iter
    (fun r ->
      check_bool "within horizon" true (r.Workload.issued < 2000);
      check_bool "known file" true (List.mem r.Workload.file [ 0; 1 ]))
    t1

let test_workload_rate_scales () =
  let p = toy_ida () in
  let at rate =
    List.length
      (Workload.generate ~program:p ~rate ~theta:0.5
         ~needed_of:(fun _ -> 1)
         ~deadline_of:(fun _ -> 10)
         ~horizon:5000 ~seed:7)
  in
  let low = at 0.05 and high = at 0.4 in
  check_bool "rate scales volume" true (high > 4 * low)

let test_workload_zipf_skew () =
  let p = toy_ida () in
  let trace =
    Workload.generate ~program:p ~rate:0.5 ~theta:1.2
      ~needed_of:(fun _ -> 1)
      ~deadline_of:(fun _ -> 10)
      ~horizon:8000 ~seed:13
  in
  let count f = List.length (List.filter (fun r -> r.Workload.file = f) trace) in
  check_bool "file 0 hotter than file 1" true (count 0 > count 1)

let test_engine_error_free_all_meet () =
  let p = toy_ida () in
  (* Error-free worst cases are 8 slots; deadlines 10/12 are met always. *)
  let r =
    Engine.run ~program:p ~fault:(fun ~seed:_ -> Fault.none ()) ~seed:0
      (trace_for p)
  in
  check_int "no misses" 0 r.Engine.missed;
  check_int "all completed" r.Engine.requests r.Engine.completed;
  check_bool "latency bounded by worst case" true
    (Stats.max_value r.Engine.latency <= 8.0);
  check_int "two files tracked" 2 (List.length r.Engine.per_file)

let test_engine_per_file_consistency () =
  let p = toy_ida () in
  let r =
    Engine.run ~program:p
      ~fault:(fun ~seed -> Fault.bernoulli ~p:0.2 ~seed)
      ~seed:5 (trace_for p)
  in
  let sum_req =
    List.fold_left
      (fun acc (f : Engine.file_stats) -> acc + f.Engine.requests)
      0 r.Engine.per_file
  in
  let sum_miss =
    List.fold_left
      (fun acc (f : Engine.file_stats) -> acc + f.Engine.missed)
      0 r.Engine.per_file
  in
  check_int "per-file requests sum" r.Engine.requests sum_req;
  check_int "per-file misses sum" r.Engine.missed sum_miss;
  check_bool "losses happened" true (r.Engine.losses > 0)

let test_engine_loss_monotone () =
  let p = toy_ida () in
  let miss loss =
    Engine.miss_ratio
      (Engine.run ~program:p
         ~fault:(fun ~seed -> Fault.bernoulli ~p:loss ~seed)
         ~seed:5 (trace_for p))
  in
  check_bool "misses grow with loss" true (miss 0.05 <= miss 0.4 +. 1e-9)

let test_engine_file_miss_ratio () =
  let p = toy_ida () in
  let r =
    Engine.run ~program:p
      ~fault:(fun ~seed -> Fault.bernoulli ~p:0.35 ~seed)
      ~seed:9 (trace_for p)
  in
  List.iter
    (fun (f : Engine.file_stats) ->
      let ratio = Engine.file_miss_ratio f in
      Alcotest.(check (float 1e-9)) "ratio is missed / requests"
        (if f.Engine.requests = 0 then 0.0
         else float_of_int f.Engine.missed /. float_of_int f.Engine.requests)
        ratio;
      check_bool "ratio in [0, 1]" true (0.0 <= ratio && ratio <= 1.0))
    r.Engine.per_file

let test_engine_pp_result_lists_per_file_ratios () =
  let p = toy_ida () in
  let r =
    Engine.run ~program:p
      ~fault:(fun ~seed -> Fault.bernoulli ~p:0.35 ~seed)
      ~seed:9 (trace_for p)
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
    scan 0
  in
  let rendered = Format.asprintf "%a" Engine.pp_result r in
  List.iter
    (fun (f : Engine.file_stats) ->
      let line = Format.asprintf "%a" Engine.pp_file_stats f in
      check_bool "file line carries the percentage" true
        (String.contains line '%');
      check_bool "summary embeds every per-file line" true
        (contains rendered line))
    r.Engine.per_file

(* ------------------------------------------------------------------ *)
(* Cohort: the production population engine, against the Engine oracle *)
(* ------------------------------------------------------------------ *)

module Cohort = Pindisk_sim.Cohort
module Pw = Pindisk_pinwheel

let stats_eq label (a : Stats.t) (b : Stats.t) =
  check_int (label ^ " count") (Stats.count a) (Stats.count b);
  if Stats.count a > 0 then begin
    Alcotest.(check (float 0.0)) (label ^ " total") (Stats.total a) (Stats.total b);
    Alcotest.(check (float 0.0)) (label ^ " min") (Stats.min_value a) (Stats.min_value b);
    Alcotest.(check (float 0.0)) (label ^ " max") (Stats.max_value a) (Stats.max_value b);
    Alcotest.(check (float 0.0)) (label ^ " median") (Stats.median a) (Stats.median b)
  end

let result_eq (a : Engine.result) (b : Engine.result) =
  check_int "requests" a.Engine.requests b.Engine.requests;
  check_int "completed" a.Engine.completed b.Engine.completed;
  check_int "missed" a.Engine.missed b.Engine.missed;
  check_int "losses" a.Engine.losses b.Engine.losses;
  stats_eq "latency" a.Engine.latency b.Engine.latency;
  check_int "per-file count" (List.length a.Engine.per_file)
    (List.length b.Engine.per_file);
  List.iter2
    (fun (fa : Engine.file_stats) (fb : Engine.file_stats) ->
      check_int "file" fa.Engine.file fb.Engine.file;
      check_int "file requests" fa.Engine.requests fb.Engine.requests;
      check_int "file missed" fa.Engine.missed fb.Engine.missed;
      stats_eq "file latency" fa.Engine.latency fb.Engine.latency)
    a.Engine.per_file b.Engine.per_file

(* A dyadic 4-file broadcast system (density 1/2), planned by the
   pinwheel scheduler. *)
let dyadic_program () =
  let sys =
    [ Pw.Task.unit ~id:0 ~b:4; Pw.Task.unit ~id:1 ~b:8;
      Pw.Task.unit ~id:2 ~b:16; Pw.Task.unit ~id:3 ~b:16 ]
  in
  let plan =
    match Pw.Scheduler.plan sys with
    | Some p -> p
    | None -> Alcotest.fail "dyadic density-1/2 system schedules"
  in
  Program.make ~schedule:(Pw.Plan.to_schedule plan)
    ~capacities:[ (0, 4); (1, 2); (2, 2); (3, 1) ]

(* The toy layout with both files' block cycles starting mid-way (file 0
   at block 3, file 1 at block 4): Engine reads the phased block indices,
   Cohort counts from 0, and a constant shift must not change a result. *)
let toy_phased () =
  Program.of_layout
    [ (0, 3); (1, 4); (0, 4); (0, 5); (1, 5); (0, 6); (1, 0); (0, 7) ]
    ~capacities:[ (0, 10); (1, 6) ]

(* Four program shapes for the equivalence matrix: the dyadic pinwheel
   plan plus three toy layouts. *)
let cohort_systems () =
  let dyadic =
    ("dyadic", dyadic_program (),
     List.concat_map
       (fun k ->
         let file = k mod 4 in
         [
           { Workload.issued = (3 * k) + (k mod 2); file;
             needed = (if file = 0 then 2 else 1); deadline = 40 };
           (* A hopeless deadline, to exercise the missed path. *)
           { Workload.issued = (3 * k) + 1; file; needed = 1; deadline = 0 };
         ])
       (List.init 12 Fun.id))
  in
  let of_program name program needed_of =
    (name, program,
     List.concat_map
       (fun k ->
         let file = k mod 2 in
         [
           { Workload.issued = 2 * k; file; needed = needed_of file;
             deadline = 30 };
           { Workload.issued = (2 * k) + 1; file; needed = 1; deadline = 0 };
         ])
       (List.init 10 Fun.id))
  in
  [
    dyadic;
    of_program "flat" (toy_flat ()) (fun file -> if file = 0 then 3 else 2);
    of_program "ida" (toy_ida ()) (fun file -> if file = 0 then 5 else 3);
    of_program "phased" (toy_phased ()) (fun file -> if file = 0 then 5 else 3);
  ]

let cohort_fault_models =
  [
    ("none", fun ~seed:_ -> Fault.none ());
    ("bernoulli", fun ~seed -> Fault.bernoulli ~p:0.25 ~seed);
    ("burst",
     fun ~seed ->
       Fault.burst ~p_good_to_bad:0.15 ~p_bad_to_good:0.35 ~loss_good:0.02
         ~loss_bad:0.6 ~seed);
    ("deterministic", fun ~seed:_ -> Fault.deterministic (fun t -> t mod 7 = 2));
  ]

let test_cohort_run_equals_engine () =
  (* The tentpole pin: sampled-fault Cohort.run reproduces the per-client
     oracle's Engine.result exactly — programs x fault models x seeds. *)
  List.iter
    (fun (_, program, trace) ->
      List.iter
        (fun (_, fault) ->
          List.iter
            (fun seed ->
              result_eq
                (Engine.run ~program ~fault ~seed trace)
                (Cohort.run ~program ~fault ~seed trace))
            [ 3; 17; 91 ])
        cohort_fault_models)
    (cohort_systems ())

let test_cohort_run_equals_engine_max_slots () =
  let fault ~seed = Fault.bernoulli ~p:0.3 ~seed in
  List.iter
    (fun (_, program, trace) ->
      List.iter
        (fun max_slots ->
          result_eq
            (Engine.run ~max_slots ~program ~fault ~seed:5 trace)
            (Cohort.run ~max_slots ~program ~fault ~seed:5 trace))
        [ 1; 16; 24; 128 ])
    (cohort_systems ())

(* Seven one-block files with prime capacities 251 ... 223 air once
   each in a 7-slot period: a data cycle of 273 343 548 857 317 771
   slots, so the default window of 100 data cycles does not fit an int.
   Unchecked, it wrapped negative and a loss-free request for file 0,
   which airs every 7 slots, came back missed. *)
let test_default_window_overflow () =
  let program =
    Program.aida_flat
      (List.mapi (fun f n -> (f, 1, n)) [ 251; 241; 239; 233; 229; 227; 223 ])
  in
  check_int "period" 7 (Program.period program);
  check_int "data cycle" 273_343_548_857_317_771 (Program.data_cycle program);
  let overflow =
    Invalid_argument "Program.data_cycles: 100 data cycles overflow an int; pass max_slots"
  in
  Alcotest.check_raises "100 data cycles" overflow (fun () ->
      ignore (Program.data_cycles program 100));
  check_int "10 data cycles fit" 2_733_435_488_573_177_710
    (Program.data_cycles program 10);
  let trace = [ { Workload.issued = 0; file = 0; needed = 1; deadline = 7 } ] in
  let fault ~seed:_ = Fault.none () in
  Alcotest.check_raises "Cohort.run names max_slots" overflow (fun () ->
      ignore (Cohort.run ~program ~fault ~seed:0 trace));
  Alcotest.check_raises "Engine.run names max_slots" overflow (fun () ->
      ignore (Engine.run ~program ~fault ~seed:0 trace));
  check_int "served within an explicit window" 0
    (Cohort.run ~max_slots:7 ~program ~fault ~seed:0 trace).Engine.missed

let test_cohort_run_validation () =
  let program = dyadic_program () in
  let run ?(program = program) trace =
    ignore
      (Cohort.run ~program ~fault:(fun ~seed:_ -> Fault.none ()) ~seed:0 trace)
  in
  let req ?(issued = 0) ?(needed = 1) file =
    { Workload.issued; file; needed; deadline = 5 }
  in
  Alcotest.check_raises "unknown file"
    (Invalid_argument "Cohort.run: file not in the program") (fun () ->
      run [ req 9 ]);
  Alcotest.check_raises "needed beyond capacity"
    (Invalid_argument "Cohort.run: needed exceeds the file's capacity")
    (fun () -> run [ req ~needed:2 3 ]);
  Alcotest.check_raises "negative start"
    (Invalid_argument "Cohort.run: negative start") (fun () ->
      run [ req ~issued:(-1) 0 ]);
  Alcotest.check_raises "never broadcast"
    (Invalid_argument "Cohort.run: file never broadcast") (fun () ->
      let program =
        Program.make ~schedule:(Program.schedule program)
          ~capacities:
            ((7, 1)
            :: List.map (fun f -> (f, Program.capacity program f))
                 (Program.files program))
      in
      run ~program [ req 7 ]);
  List.iter
    (fun max_slots ->
      Alcotest.check_raises
        (Printf.sprintf "max_slots %d" max_slots)
        (Invalid_argument "Cohort.run: max_slots must be >= 1") (fun () ->
          ignore
            (Cohort.run ~max_slots ~program
               ~fault:(fun ~seed -> Fault.bernoulli ~p:0.1 ~seed)
               ~seed:0 [ req 0 ])))
    [ 0; -3; -10 ]

let test_cohort_classes_of_trace () =
  let _, program, trace = List.hd (cohort_systems ()) in
  let period = Program.period program in
  let classes = Cohort.classes_of_trace ~period trace in
  check_int "weights sum to trace length" (List.length trace)
    (List.fold_left (fun acc (c : Cohort.cls) -> acc + c.Cohort.weight) 0 classes);
  let keys = List.map (fun (c : Cohort.cls) -> c.Cohort.key) classes in
  check_bool "canonical order" true (keys = List.sort compare keys);
  List.iter
    (fun (c : Cohort.cls) ->
      check_bool "phase within period" true
        (c.Cohort.key.Cohort.phase >= 0 && c.Cohort.key.Cohort.phase < period))
    classes;
  Alcotest.check_raises "bad period"
    (Invalid_argument "Cohort.classes_of_trace: period must be >= 1") (fun () ->
      ignore (Cohort.classes_of_trace ~period:0 trace))

let test_cohort_population_no_loss_equals_engine () =
  (* With no losses every member of a class completes at the same slot
     distance, so the analytic fold must equal the per-client oracle on
     a trace that realizes the same classes (members spread over period
     echoes of the same phase). *)
  let _, program, _ = List.hd (cohort_systems ()) in
  let period = Program.period program in
  let trace =
    List.concat_map
      (fun m ->
        [
          { Workload.issued = 2 + (m * period); file = 0; needed = 2;
            deadline = 12 };
          { Workload.issued = 5 + (m * period); file = 1; needed = 2;
            deadline = 3 };
        ])
      (List.init 5 Fun.id)
  in
  let classes = Cohort.classes_of_trace ~period trace in
  result_eq
    (Engine.run ~program ~fault:(fun ~seed:_ -> Fault.none ()) ~seed:0 trace)
    (Cohort.run_population ~program ~model:Cohort.No_loss ~seed:0
       classes)

let test_cohort_population_mass_conservation () =
  let _, program, trace = List.hd (cohort_systems ()) in
  let period = Program.period program in
  let classes =
    List.map
      (fun (c : Cohort.cls) -> { c with Cohort.weight = c.Cohort.weight * 1000 })
      (Cohort.classes_of_trace ~period trace)
  in
  let population =
    List.fold_left (fun acc (c : Cohort.cls) -> acc + c.Cohort.weight) 0 classes
  in
  let r =
    Cohort.run_population ~program
      ~model:(Cohort.Bernoulli { p = 0.3 })
      ~seed:0 classes
  in
  check_int "every member retired" population r.Engine.requests;
  check_int "completed = latency count" r.Engine.completed
    (Stats.count r.Engine.latency);
  check_bool "missed within population" true
    (r.Engine.missed >= 0 && r.Engine.missed <= population);
  check_int "per-file requests sum to population" population
    (List.fold_left
       (fun acc (f : Engine.file_stats) -> acc + f.Engine.requests)
       0 r.Engine.per_file)

let test_cohort_population_analytic_close_to_sampled () =
  let _, program, trace = List.hd (cohort_systems ()) in
  let period = Program.period program in
  let classes =
    List.map
      (fun (c : Cohort.cls) -> { c with Cohort.weight = c.Cohort.weight * 500 })
      (Cohort.classes_of_trace ~period trace)
  in
  let model = Cohort.Bernoulli { p = 0.3 } in
  let analytic =
    Cohort.run_population ~program ~model ~seed:11 classes
  in
  let sampled =
    Cohort.run_population ~sampled:true ~program ~model ~seed:11
      classes
  in
  check_int "same population" analytic.Engine.requests sampled.Engine.requests;
  check_bool "miss ratios agree" true
    (abs_float (Engine.miss_ratio analytic -. Engine.miss_ratio sampled) < 0.03);
  check_bool "mean latencies agree" true
    (abs_float
       (Stats.mean analytic.Engine.latency -. Stats.mean sampled.Engine.latency)
     /. Stats.mean sampled.Engine.latency
    < 0.1);
  check_bool "losses agree" true
    (abs_float
       (float_of_int analytic.Engine.losses
       -. float_of_int sampled.Engine.losses)
     /. float_of_int (max 1 sampled.Engine.losses)
    < 0.1)

(* Sweep boundaries, on a period-8 program airing file 0 at offsets 1
   and 3. Each sweep is also checked against [Client.retrieve]'s
   per-slot walk where one lane suffices. *)
let sweep_program () =
  Program.of_layout
    [ (1, 0); (0, 0); (-1, 0); (0, 1); (1, 1); (-1, 0); (-1, 0); (-1, 0) ]
    ~capacities:[ (0, 2); (1, 2) ]

let check_sweep = Alcotest.(check (triple (option int) int int))

let sweep_one ~lose ~issued ~needed ~max_slots =
  let program = sweep_program () in
  let fault () = Fault.deterministic lose in
  let f = fault () in
  Fault.reset_to f issued;
  let ((elapsed, losses, _) as swept) =
    Cohort.sweep ~needed ~max_slots
      [| Cohort.lane program ~file:0 ~issued f |]
  in
  let o =
    retrieve_ok ~max_slots ~program ~file:0 ~needed ~start:issued
      ~fault:(fault ()) ()
  in
  check_bool "elapsed as the per-slot walk" true (elapsed = o.Client.elapsed);
  check_int "losses as the per-slot walk" o.Client.losses losses;
  swept

let test_sweep_window_edge () =
  let never _ = false in
  (* The second piece airs at slot 3: inside a 4-slot window, not a
     3-slot one. *)
  check_sweep "own slot at max_slots - 1 counts" (Some 4, 0, 4)
    (sweep_one ~lose:never ~issued:0 ~needed:2 ~max_slots:4);
  check_sweep "own slot at max_slots does not" (None, 0, 3)
    (sweep_one ~lose:never ~issued:0 ~needed:2 ~max_slots:3);
  let lose_1 t = t = 1 in
  check_sweep "retry at max_slots - 1" (Some 4, 1, 4)
    (sweep_one ~lose:lose_1 ~issued:0 ~needed:1 ~max_slots:4);
  check_sweep "retry at max_slots" (None, 1, 3)
    (sweep_one ~lose:lose_1 ~issued:0 ~needed:1 ~max_slots:3)

let test_sweep_after_last_offset () =
  (* Phase 5 is past the period's last offset 3: the first occurrence
     is offset 1 of the next period, relative slot 4. *)
  check_sweep "issued at 5" (Some 7, 0, 7)
    (sweep_one ~lose:(fun _ -> false) ~issued:5 ~needed:2 ~max_slots:40);
  check_sweep "issued at 13, a period later" (Some 7, 1, 7)
    (sweep_one ~lose:(fun t -> t = 17) ~issued:13 ~needed:1 ~max_slots:40);
  check_sweep "issued at 4" (Some 6, 0, 6)
    (sweep_one ~lose:(fun _ -> false) ~issued:4 ~needed:1 ~max_slots:40)

let test_sweep_completing_slot_losses () =
  (* Three lanes air at slot 1; the middle one completes the member and
     the lanes on either side of it lose: both losses count. *)
  let program = sweep_program () in
  let lane lose =
    let f = Fault.deterministic lose in
    Fault.reset_to f 0;
    Cohort.lane program ~file:0 ~issued:0 f
  in
  let all _ = true and none _ = false in
  check_sweep "both losses in the completing slot" (Some 2, 2, 2)
    (Cohort.sweep ~needed:1 ~max_slots:40 [| lane all; lane none; lane all |])

let test_cohort_population_validation () =
  let _, program, _ = List.hd (cohort_systems ()) in
  let run classes =
    ignore
      (Cohort.run_population ~program ~model:Cohort.No_loss ~seed:0
         classes)
  in
  let cls ?(file = 0) ?(phase = 0) ?(needed = 1) ?(deadline = 5) weight =
    { Cohort.key = { Cohort.file; phase; needed; deadline }; weight }
  in
  Alcotest.check_raises "phase out of range"
    (Invalid_argument "Cohort.run_population: phase out of [0, period)")
    (fun () -> run [ cls ~phase:(-1) 5 ]);
  Alcotest.check_raises "needed beyond capacity"
    (Invalid_argument "Cohort.run_population: needed exceeds the file's capacity")
    (fun () -> run [ cls ~file:3 ~needed:2 5 ]);
  Alcotest.check_raises "unknown file"
    (Invalid_argument "Cohort.run_population: file not in the program")
    (fun () -> run [ cls ~file:9 5 ]);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Cohort.run_population: negative class weight")
    (fun () -> run [ cls (-1) ]);
  (* Folded, a non-positive window would give negative Wald losses: on
     this period-3 program, -600 at max_slots -10. *)
  let program = Program.flat [ (0, 2); (1, 1) ] in
  List.iter
    (fun max_slots ->
      Alcotest.check_raises
        (Printf.sprintf "max_slots %d" max_slots)
        (Invalid_argument "Cohort.run_population: max_slots must be >= 1")
        (fun () ->
          ignore
            (Cohort.population_rows ~max_slots ~program
               ~model:(Cohort.Bernoulli { p = 0.1 })
               ~seed:0 ~rest:[]
               [ cls ~needed:2 1000 ])))
    [ 0; -3; -10 ]

(* Every count, loss, latency accumulator and per-file stat, exactly
   (floats in hex). *)
let render_result (r : Engine.result) =
  let stats s =
    if Stats.count s = 0 then "0"
    else
      Printf.sprintf "%d %h %h %h %h %h %h" (Stats.count s) (Stats.total s)
        (Stats.min_value s) (Stats.max_value s) (Stats.median s)
        (Stats.percentile s 99.0) (Stats.variance s)
  in
  String.concat "\n"
    (Printf.sprintf "%d requests %d completed %d missed %d losses; %s"
       r.Engine.requests r.Engine.completed r.Engine.missed r.Engine.losses
       (stats r.Engine.latency)
    :: List.map
         (fun (f : Engine.file_stats) ->
           Printf.sprintf "file %d: %d requests %d missed; %s" f.Engine.file
             f.Engine.requests f.Engine.missed (stats f.Engine.latency))
         r.Engine.per_file)

(* Results compared in full (bool, for qcheck properties). *)
let result_equal_bool (a : Engine.result) (b : Engine.result) =
  render_result a = render_result b

(* qcheck: permuting a trace never changes its class partition, and
   permuting/splitting the class list never changes the population
   result (member fault seeds are content-derived, not index-derived). *)
(* A closed-form population with a pool or a retrieval window: the
   retirement of [Cohort.population_rows], the path [Multi] runs and
   [Cohort.run_population] takes with neither. *)
let population ?pool ?max_slots ~program ~model ~seed classes =
  Cohort.retire
    (Cohort.population_rows ?pool ?max_slots ~program ~model ~seed ~rest:[]
       classes)

let prop_cohort_permutation_invariant =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30)
           (quad (int_range 0 3) (int_range 0 40) (int_range 1 2)
              (int_range 0 20)))
        (int_range 0 1000))
  in
  QCheck2.Test.make ~name:"cohort result is permutation-invariant" ~count:40
    gen
    (fun (raw, salt) ->
      let _, program, _ = List.hd (cohort_systems ()) in
      let period = Program.period program in
      let trace =
        List.map
          (fun (file, issued, needed, deadline) ->
            (* file 3 has capacity 1 in the dyadic system. *)
            let needed = if file = 3 then 1 else needed in
            { Workload.issued; file; needed; deadline })
          raw
      in
      (* A deterministic pseudo-random permutation keyed on the salt. *)
      let permuted =
        List.mapi (fun i r -> (Pindisk_util.Intmath.mix64 (salt + i), r)) trace
        |> List.sort compare |> List.map snd
      in
      let classes = Cohort.classes_of_trace ~period trace in
      let classes' = Cohort.classes_of_trace ~period permuted in
      let model =
        Cohort.Burst
          { p_good_to_bad = 0.2; p_bad_to_good = 0.4; loss_good = 0.05;
            loss_bad = 0.5 }
      in
      let run cs =
        population ~max_slots:64 ~program ~model ~seed:9 cs
      in
      classes = classes'
      && result_equal_bool (run classes) (run (List.rev classes))
      && result_equal_bool (run classes) (run classes'))

(* The analytic population fold as it stood when every class ran its
   own completion-law DP: per class, the Poisson-binomial DP up to
   convergence or the class's ordinal bound, a polymorphic sort of
   (fraction, bucket) pairs for the largest-remainder apportionment, and
   a Hashtbl of rows re-sorted by elapsed. Kept as the oracle the
   shared-law fold must equal bit for bit. *)
module File_spec = Pindisk.File_spec
module Retire = Pindisk_sim.Retire
module Pool = Pindisk_util.Pool

let oracle_first_from offs phase =
  let lo = ref 0 and hi = ref (Array.length offs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if offs.(mid) < phase then lo := mid + 1 else hi := mid
  done;
  !lo

let oracle_rows_of_hist ~file ~deadline elapsed_counts ~expired ~losses =
  let entries =
    Hashtbl.fold (fun e c acc -> (e, c) :: acc) elapsed_counts []
    |> List.sort compare
  in
  let rows =
    List.map
      (fun (e, c) ->
        { Retire.file; deadline; elapsed = Some e; weight = c; losses = 0 })
      entries
  in
  let rows =
    if expired > 0 then
      rows
      @ [ { Retire.file; deadline; elapsed = None; weight = expired; losses = 0 } ]
    else rows
  in
  match rows with
  | [] -> []
  | first :: rest -> { first with Retire.losses } :: rest

let oracle_analytic_class ~offs ~period ~phase ~cap ~needed ~deadline
    ~max_slots ~p ~weight ~file =
  let occ = Array.length offs in
  let i0 = oracle_first_from offs phase in
  let d_of_ordinal j =
    let idx = i0 + j - 1 in
    offs.(idx mod occ) + (period * (idx / occ)) - phase
  in
  let jmax =
    let full = max_slots / period and rem = max_slots mod period in
    let inwin =
      Array.fold_left
        (fun acc o ->
          if (o - phase + period) mod period < rem then acc + 1 else acc)
        0 offs
    in
    (occ * full) + inwin
  in
  let pow_p v = if v = 0 then 1.0 else p ** float_of_int v in
  let tail_prob v =
    let dp = Array.make needed 0.0 in
    dp.(0) <- 1.0;
    for r = 0 to cap - 1 do
      let c = 1.0 -. pow_p v.(r) in
      if c > 0.0 then
        for k = needed - 1 downto 0 do
          let flow = dp.(k) *. c in
          dp.(k) <- dp.(k) -. flow;
          if k + 1 < needed then dp.(k + 1) <- dp.(k + 1) +. flow
        done
    done;
    1.0 -. Array.fold_left ( +. ) 0.0 dp
  in
  let visits = Array.make cap 0 in
  let masses = ref [] in
  let prev_a = ref 0.0 in
  let j = ref 0 in
  let converged = ref false in
  while (not !converged) && !j < jmax do
    incr j;
    let r = (!j - 1) mod cap in
    visits.(r) <- visits.(r) + 1;
    let a = tail_prob visits in
    let m = a -. !prev_a in
    if m > 0.0 then masses := (!j, m) :: !masses;
    prev_a := a;
    if 1.0 -. a < 1e-15 then converged := true
  done;
  let tail = Float.max 0.0 (1.0 -. !prev_a) in
  let buckets =
    Array.of_list
      (List.rev
         ((None, tail) :: List.rev_map (fun (j, m) -> (Some j, m)) !masses))
  in
  let nb = Array.length buckets in
  let alloc = Array.make nb 0 in
  let fracs = Array.make nb (0.0, 0) in
  let given = ref 0 in
  Array.iteri
    (fun i (_, m) ->
      let q = m *. float_of_int weight in
      let fl = int_of_float (floor q) in
      alloc.(i) <- fl;
      given := !given + fl;
      fracs.(i) <- (q -. float_of_int fl, i))
    buckets;
  let order = Array.copy fracs in
  Array.sort
    (fun (fa, ia) (fb, ib) -> if fa <> fb then compare fb fa else compare ia ib)
    order;
  let remaining = ref (weight - !given) in
  Array.iter
    (fun (_, i) ->
      if !remaining > 0 then begin
        alloc.(i) <- alloc.(i) + 1;
        decr remaining
      end)
    order;
  let elapsed_counts = Hashtbl.create 32 in
  let expired = ref 0 in
  let ordinals = ref 0.0 in
  Array.iteri
    (fun i (bucket, _) ->
      if alloc.(i) > 0 then
        match bucket with
        | Some jo ->
            Hashtbl.replace elapsed_counts (d_of_ordinal jo + 1) alloc.(i);
            ordinals := !ordinals +. float_of_int (alloc.(i) * jo)
        | None ->
            expired := !expired + alloc.(i);
            ordinals := !ordinals +. float_of_int (alloc.(i) * jmax))
    buckets;
  let losses = int_of_float (Float.round (p *. !ordinals)) in
  oracle_rows_of_hist ~file ~deadline elapsed_counts ~expired:!expired ~losses

(* The oracle's rows for a class list, canonicalized as the fold does
   (merged duplicate keys, zero weights dropped, sorted keys). *)
let oracle_population_rows ?max_slots ~program ~p classes =
  let max_slots =
    match max_slots with Some m -> m | None -> 100 * Program.data_cycle program
  in
  let period = Program.period program in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (c : Cohort.cls) ->
      if c.Cohort.weight > 0 then
        Hashtbl.replace tbl c.Cohort.key
          (c.Cohort.weight
          + Option.value ~default:0 (Hashtbl.find_opt tbl c.Cohort.key)))
    classes;
  Hashtbl.fold (fun key weight acc -> (key, weight) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.concat_map (fun ((k : Cohort.key), weight) ->
         oracle_analytic_class
           ~offs:(Program.offsets program k.Cohort.file)
           ~period ~phase:k.Cohort.phase
           ~cap:(Program.capacity program k.Cohort.file)
           ~needed:k.Cohort.needed ~deadline:k.Cohort.deadline ~max_slots ~p
           ~weight ~file:k.Cohort.file)

let oracle_population ?max_slots ~program ~p classes =
  Retire.retire
    ~sinks:(Retire.sinks ~prefix:"oracle")
    (oracle_population_rows ?max_slots ~program ~p classes)

(* A random program: [flat], a cycling [of_layout] with idle slots and
   per-file block phases, or the pinwheel program [auto] finds. *)
let random_program st =
  let int n = Random.State.int st n in
  match int 3 with
  | 0 -> Program.flat (List.init (1 + int 3) (fun f -> (f, 1 + int 4)))
  | 1 ->
      let files = 1 + int 3 in
      let period = files + int 10 in
      let cap = Array.init files (fun _ -> 1 + int 6) in
      let phase = Array.map (fun c -> int c) cap in
      let slots =
        Array.init period (fun s ->
            if s < files then s else if int 4 = 0 then -1 else int files)
      in
      for s = period - 1 downto 1 do
        let k = int (s + 1) in
        let x = slots.(s) in
        slots.(s) <- slots.(k);
        slots.(k) <- x
      done;
      let seen = Array.make files 0 in
      let layout =
        Array.to_list
          (Array.map
             (fun f ->
               if f < 0 then (-1, 0)
               else begin
                 let k = seen.(f) in
                 seen.(f) <- k + 1;
                 (f, (phase.(f) + k) mod cap.(f))
               end)
             slots)
      in
      Program.of_layout layout
        ~capacities:(List.init files (fun f -> (f, cap.(f))))
  | _ -> (
      let specs =
        List.init (1 + int 3) (fun id ->
            File_spec.make ~id ~blocks:(1 + int 3) ~tolerance:(int 3)
              ~latency:(4 * (1 + int 4)) ())
      in
      let design bandwidth =
        Result.to_option (Pindisk.Shard.design ~channels:1 ~bandwidth specs)
      in
      match
        Option.bind (Pindisk.Bandwidth.minimum specs) design
        |> Fun.flip Option.bind Pindisk.Shard.program
      with
      | Some program -> program
      | None -> Program.flat [ (0, 2); (1, 1) ])

(* Several phases per file, weights 0, 1, up to 5000 or in the
   millions (which leave dozens of clients over after the floors), and
   now and then a duplicate key, which the fold must merge. *)
let random_classes st program =
  let int n = Random.State.int st n in
  let period = Program.period program in
  let classes =
    List.concat_map
      (fun file ->
        let cap = Program.capacity program file in
        List.init (1 + int 4) (fun _ ->
            let key =
              { Cohort.file; phase = int period; needed = 1 + int cap;
                deadline = int (2 * period + 2) }
            in
            let weight =
              match int 5 with
              | 0 -> 0
              | 1 -> 1
              | 2 -> 1_000_000 + int 10_000_000
              | _ -> 2 + int 5000
            in
            { Cohort.key; weight }))
      (Program.files program)
  in
  match classes with
  | c :: _ when int 3 = 0 -> { c with Cohort.weight = 1 + int 50 } :: classes
  | _ -> classes

let oracle_pool =
  lazy
    (let pool = Pool.create ~domains:2 () in
     at_exit (fun () -> Pool.shutdown pool);
     pool)

let prop_population_matches_oracle =
  QCheck2.Test.make ~name:"population fold equals the per-class oracle"
    ~count:150 (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let st = Random.State.make [| seed |] in
      let program = random_program st in
      let classes = random_classes st program in
      let p = [| 0.0; 1e-300; 0.05; 0.5; 0.95; 1.0 |].(Random.State.int st 6) in
      let period = Program.period program in
      let max_slots =
        match Random.State.int st 3 with
        | 0 -> None
        | 1 -> Some (1 + Random.State.int st period)
        | _ ->
            Some
              (((2 + Random.State.int st 6) * Program.data_cycle program)
              + Random.State.int st period)
      in
      let model = if p = 0.0 then Cohort.No_loss else Cohort.Bernoulli { p } in
      let oracle = render_result (oracle_population ?max_slots ~program ~p classes) in
      let run ?pool () =
        render_result
          (population ?pool ?max_slots ~program ~model ~seed:0 classes)
      in
      let seq = run () and pooled = run ~pool:(Lazy.force oracle_pool) () in
      (seq = oracle && pooled = oracle)
      || QCheck2.Test.fail_reportf "fold:\n%s\npooled:\n%s\noracle:\n%s" seq
           pooled oracle)

(* Equal fractions (1/2) on both sides of the apportionment's cut: one
   client fewer or more on a bucket if the tie goes the wrong way. *)
let test_population_oracle_tied_cut () =
  List.iter
    (fun (cap, weight) ->
      let program = Program.flat [ (0, cap) ] in
      let classes =
        [ { Cohort.key = { Cohort.file = 0; phase = 0; needed = cap; deadline = 9 };
            weight } ]
      in
      Alcotest.(check string)
        (Printf.sprintf "cap %d, weight %d" cap weight)
        (render_result (oracle_population ~program ~p:0.5 classes))
        (render_result
           (Cohort.run_population ~program ~model:(Cohort.Bernoulli { p = 0.5 })
              ~seed:0 classes)))
    [ (3, 1 lsl 30); (4, 7 lsl 27); (5, 7 lsl 27) ]

(* ------------------------------------------------------------------ *)
(* Workload.ycsb                                                       *)
(* ------------------------------------------------------------------ *)

let ycsb_program () =
  (* Four files, id order = popularity order. *)
  Program.flat [ (0, 2); (1, 2); (2, 2); (3, 2) ]

let ycsb ?(rate = 0.8) ?(popularity = Workload.Zipfian { theta = 1.2 })
    ?(arrivals = Workload.Steady) ?(horizon = 4000) ?(seed = 42) () =
  Workload.ycsb ~program:(ycsb_program ()) ~rate ~popularity ~arrivals
    ~needed_of:(fun _ -> 1)
    ~deadline_of:(fun _ -> 16)
    ~horizon ~seed

let file_counts trace =
  let counts = Array.make 4 0 in
  List.iter
    (fun (r : Workload.request) ->
      counts.(r.Workload.file) <- counts.(r.Workload.file) + 1)
    trace;
  counts

let test_ycsb_deterministic () =
  let a = ycsb () and b = ycsb () in
  check_bool "same seed, identical trace" true (a = b);
  check_bool "different seed, different trace" true (a <> ycsb ~seed:43 ());
  check_bool "sorted by issue slot" true
    (List.for_all2
       (fun (x : Workload.request) (y : Workload.request) ->
         x.Workload.issued <= y.Workload.issued)
       (List.filteri (fun i _ -> i < List.length a - 1) a)
       (List.tl a));
  List.iter
    (fun (r : Workload.request) ->
      check_bool "slot within horizon" true
        (r.Workload.issued >= 0 && r.Workload.issued < 4000))
    a

let test_ycsb_zipfian_skew () =
  (* Chi-squared-style pin: empirical file shares must track the zipf
     weights (theta 1.2 over 4 files) within a few points. *)
  let trace = ycsb ~horizon:8000 () in
  let counts = file_counts trace in
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  let expected = Pindisk_sim.Cache.zipf_weights ~n:4 ~theta:1.2 in
  let chi2 = ref 0.0 in
  Array.iteri
    (fun i c ->
      let e = expected.(i) *. total in
      let d = float_of_int c -. e in
      chi2 := !chi2 +. (d *. d /. e))
    counts;
  (* 3 degrees of freedom: chi2 < 16.27 is the 99.9th percentile. *)
  check_bool
    (Printf.sprintf "chi2 %.2f within 99.9%% band" !chi2)
    true (!chi2 < 16.27);
  check_bool "skew is visible" true (counts.(0) > 2 * counts.(3))

let test_ycsb_hotspot () =
  let trace =
    ycsb ~popularity:(Workload.Hotspot { hot_fraction = 0.25; hot_weight = 0.8 })
      ~horizon:8000 ()
  in
  let counts = file_counts trace in
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  let hot_share = float_of_int counts.(0) /. total in
  check_bool
    (Printf.sprintf "hot file holds ~80%% (got %.3f)" hot_share)
    true
    (abs_float (hot_share -. 0.8) < 0.04);
  (* The three cold files split the rest roughly evenly. *)
  List.iter
    (fun i ->
      let share = float_of_int counts.(i) /. total in
      check_bool
        (Printf.sprintf "cold file %d near 1/15 (got %.3f)" i share)
        true
        (abs_float (share -. (0.2 /. 3.0)) < 0.03))
    [ 1; 2; 3 ]

let test_ycsb_shifting_rotates () =
  let trace =
    ycsb ~popularity:(Workload.Shifting { theta = 1.5; every = 1000 })
      ~horizon:2000 ()
  in
  let window lo hi =
    let counts = Array.make 4 0 in
    List.iter
      (fun (r : Workload.request) ->
        if r.Workload.issued >= lo && r.Workload.issued < hi then
          counts.(r.Workload.file) <- counts.(r.Workload.file) + 1)
      trace;
    counts
  in
  let argmax a =
    let best = ref 0 in
    Array.iteri (fun i v -> if v > a.(!best) then best := i) a;
    !best
  in
  check_int "first window favors file 0" 0 (argmax (window 0 1000));
  check_int "second window favors file 1" 1 (argmax (window 1000 2000))

let test_ycsb_diurnal_wave () =
  let trace =
    ycsb ~arrivals:(Workload.Diurnal { period = 400; trough = 0.05 })
      ~horizon:8000 ()
  in
  (* sin peaks at phase 100, bottoms at phase 300 (period 400). *)
  let in_band center r =
    let phase = r.Workload.issued mod 400 in
    abs (phase - center) <= 50
  in
  let peak = List.length (List.filter (in_band 100) trace) in
  let trough = List.length (List.filter (in_band 300) trace) in
  check_bool
    (Printf.sprintf "peak band %d >> trough band %d" peak trough)
    true
    (peak > 4 * trough)

let test_ycsb_flash_crowd () =
  let trace =
    ycsb ~arrivals:(Workload.Flash { at = 2000; magnitude = 6.0; width = 200 })
      ~horizon:4000 ()
  in
  let count lo hi =
    List.length
      (List.filter
         (fun (r : Workload.request) ->
           r.Workload.issued >= lo && r.Workload.issued < hi)
         trace)
  in
  let spike = count 1900 2100 and baseline = count 900 1100 in
  check_bool
    (Printf.sprintf "flash window %d >> baseline %d" spike baseline)
    true
    (spike > 2 * baseline)

let test_ycsb_validation () =
  let run ?(rate = 1.0) ?(popularity = Workload.Zipfian { theta = 0.5 })
      ?(arrivals = Workload.Steady) ?(horizon = 10) () =
    ignore (ycsb ~rate ~popularity ~arrivals ~horizon ())
  in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  let nan = Float.nan in
  raises "Workload.ycsb: rate must be positive" (fun () -> run ~rate:0.0 ());
  raises "Workload.ycsb: rate must be positive" (fun () -> run ~rate:nan ());
  (* An infinite rate makes every gap 0: the arrival loop never ends. *)
  raises "Workload.ycsb: rate must be finite" (fun () -> run ~rate:infinity ());
  raises "Workload.ycsb: horizon must be >= 1" (fun () -> run ~horizon:0 ());
  raises "Workload.ycsb: negative theta" (fun () ->
      run ~popularity:(Workload.Zipfian { theta = -1.0 }) ());
  raises "Workload.ycsb: negative theta" (fun () ->
      run ~popularity:(Workload.Zipfian { theta = nan }) ());
  raises "Workload.ycsb: negative theta" (fun () ->
      run ~popularity:(Workload.Shifting { theta = nan; every = 1 }) ());
  raises "Workload.ycsb: hot_fraction must be in (0, 1]" (fun () ->
      run ~popularity:(Workload.Hotspot { hot_fraction = 0.0; hot_weight = 0.5 }) ());
  raises "Workload.ycsb: hot_fraction must be in (0, 1]" (fun () ->
      run ~popularity:(Workload.Hotspot { hot_fraction = nan; hot_weight = 0.5 }) ());
  raises "Workload.ycsb: hot_weight must be in [0, 1]" (fun () ->
      run ~popularity:(Workload.Hotspot { hot_fraction = 0.5; hot_weight = 1.5 }) ());
  raises "Workload.ycsb: hot_weight must be in [0, 1]" (fun () ->
      run ~popularity:(Workload.Hotspot { hot_fraction = 0.5; hot_weight = nan }) ());
  raises "Workload.ycsb: every must be >= 1" (fun () ->
      run ~popularity:(Workload.Shifting { theta = 0.5; every = 0 }) ());
  raises "Workload.ycsb: period must be >= 1" (fun () ->
      run ~arrivals:(Workload.Diurnal { period = 0; trough = 0.5 }) ());
  raises "Workload.ycsb: trough must be in [0, 1]" (fun () ->
      run ~arrivals:(Workload.Diurnal { period = 10; trough = 1.5 }) ());
  raises "Workload.ycsb: trough must be in [0, 1]" (fun () ->
      run ~arrivals:(Workload.Diurnal { period = 10; trough = nan }) ());
  raises "Workload.ycsb: magnitude must be >= 1" (fun () ->
      run ~arrivals:(Workload.Flash { at = 5; magnitude = 0.5; width = 2 }) ());
  raises "Workload.ycsb: magnitude must be >= 1" (fun () ->
      run ~arrivals:(Workload.Flash { at = 5; magnitude = nan; width = 2 }) ());
  raises "Workload.ycsb: magnitude must be finite" (fun () ->
      run ~arrivals:(Workload.Flash { at = 5; magnitude = infinity; width = 2 }) ());
  raises "Workload.ycsb: width must be >= 1" (fun () ->
      run ~arrivals:(Workload.Flash { at = 5; magnitude = 2.0; width = 0 }) ());
  raises "Workload.ycsb: flash slot must be >= 0" (fun () ->
      run ~arrivals:(Workload.Flash { at = -1; magnitude = 2.0; width = 2 }) ())

let test_generate_validation () =
  let run ?(rate = 1.0) ?(theta = 0.5) ?(horizon = 10) () =
    ignore
      (Workload.generate ~program:(ycsb_program ()) ~rate ~theta
         ~needed_of:(fun _ -> 1) ~deadline_of:(fun _ -> 10) ~horizon ~seed:1)
  in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Workload.generate: rate must be positive" (fun () -> run ~rate:0.0 ());
  raises "Workload.generate: rate must be positive" (fun () ->
      run ~rate:Float.nan ());
  raises "Workload.generate: rate must be finite" (fun () ->
      run ~rate:infinity ());
  raises "Workload.generate: negative theta" (fun () -> run ~theta:(-1.0) ());
  raises "Workload.generate: negative theta" (fun () ->
      run ~theta:Float.nan ());
  raises "Workload.generate: horizon must be >= 1" (fun () -> run ~horizon:0 ())

(* ------------------------------------------------------------------ *)
(* Typed errors and the resilient retrieve path                        *)
(* ------------------------------------------------------------------ *)

(* The Gilbert–Elliott stationary distribution in closed form:
   pi_bad = p_gb / (p_gb + p_bg), rate = (1 - pi_bad)·loss_good +
   pi_bad·loss_bad. [Fault.loss_rate] must implement exactly this, and
   the empirical loss over 10^5 slots must converge to it for any
   parameterization. *)
let prop_burst_loss_rate_converges =
  QCheck2.Test.make
    ~name:"burst loss_rate matches the stationary closed form empirically"
    ~count:25
    QCheck2.Gen.(
      quad (int_range 5 50) (int_range 5 50) (int_range 20 100)
        (int_bound 1_000_000))
    (fun (gb, bg, lb, seed) ->
      let p_good_to_bad = float_of_int gb /. 100.0 in
      let p_bad_to_good = float_of_int bg /. 100.0 in
      let loss_bad = float_of_int lb /. 100.0 in
      let f =
        Fault.burst ~p_good_to_bad ~p_bad_to_good ~loss_good:0.0 ~loss_bad
          ~seed
      in
      let pi_bad = p_good_to_bad /. (p_good_to_bad +. p_bad_to_good) in
      let expected = pi_bad *. loss_bad in
      if abs_float (Fault.loss_rate f -. expected) > 1e-9 then false
      else begin
        let n = 100_000 in
        let losses = ref 0 in
        for _ = 1 to n do
          if Fault.advance f then incr losses
        done;
        let empirical = float_of_int !losses /. float_of_int n in
        abs_float (empirical -. expected) < 0.03
      end)

let test_transport_unknown_file_typed () =
  let t = toy_transport () in
  match Transport.retrieve t ~file:9 ~start:0 ~fault:(Fault.none ()) with
  | Error (Transport.Unknown_file 9) -> ()
  | _ -> Alcotest.fail "expected Unknown_file 9"

let test_retrieve_typed () =
  let t = toy_transport () in
  (match Transport.retrieve t ~file:0 ~start:3 ~fault:(Fault.none ()) with
  | Ok bytes ->
      Alcotest.(check string) "bit-exact"
        "intelligent vehicle highway system db" (Bytes.to_string bytes)
  | Error _ -> Alcotest.fail "unexpected error");
  (* Lose every slot: the 100-data-cycle budget times out with nothing
     collected, and the error carries the exact accounting. *)
  let lose_all = Fault.deterministic (fun _ -> true) in
  let budget = Program.data_cycles (toy_ida ()) 100 in
  match Transport.retrieve t ~file:0 ~start:0 ~fault:lose_all with
  | Error (Transport.Timeout { slots; collected = 0; needed = 5 })
    when slots = budget -> ()
  | Error _ -> Alcotest.fail "unexpected error"
  | Ok _ -> Alcotest.fail "cannot succeed under total loss"

let test_retrieve_retries_across_cycles () =
  let t = toy_transport () in
  let dc = Program.data_cycle (toy_ida ()) in
  (* Blackout for the whole first data cycle: the client keeps listening
     across cycles and completes error-free afterwards. *)
  let blackout = Fault.deterministic (fun slot -> slot < dc) in
  (match Transport.retrieve t ~file:0 ~start:0 ~fault:blackout with
  | Ok bytes ->
      Alcotest.(check string) "bit-exact after the blackout"
        "intelligent vehicle highway system db" (Bytes.to_string bytes)
  | Error _ -> Alcotest.fail "retrieval across the blackout failed");
  (match Transport.retrieve t ~file:0 ~start:0 ~fault:(Fault.none ()) with
  | Ok bytes ->
      Alcotest.(check string) "error-free"
        "intelligent vehicle highway system db" (Bytes.to_string bytes)
  | Error _ -> Alcotest.fail "error-free retrieval failed");
  (* Total loss exhausts the budget and reports the timeout. *)
  match
    Transport.retrieve t ~file:0 ~start:0
      ~fault:(Fault.deterministic (fun _ -> true))
  with
  | Error (Transport.Timeout _) -> ()
  | _ -> Alcotest.fail "total loss must time out"

let test_retrieve_records_retries () =
  let module Obs = Pindisk_obs in
  Obs.Control.with_enabled true (fun () ->
      Obs.Registry.reset ();
      Obs.Trace.reset ();
      let t = toy_transport () in
      let dc = Program.data_cycle (toy_ida ()) in
      let blackout = Fault.deterministic (fun slot -> slot < dc) in
      (match Transport.retrieve t ~file:0 ~start:0 ~fault:blackout with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "retrieval across the blackout failed");
      check_int "one request counted" 1
        (List.assoc "sim.transport.requests" (Obs.Registry.counters ()));
      check_int "one reconstruct counted" 1
        (List.assoc "sim.transport.reconstructs" (Obs.Registry.counters ()));
      check_bool "reconstruct span traced" true
        (List.exists
           (fun e ->
             match e.Obs.Trace.span with
             | Obs.Trace.Reconstruct { file = 0; _ } -> true
             | _ -> false)
           (Obs.Trace.events ())))

let () =
  Alcotest.run "sim"
    [
      ( "fault",
        [
          Alcotest.test_case "none" `Quick test_fault_none;
          Alcotest.test_case "deterministic" `Quick test_fault_deterministic;
          Alcotest.test_case "bernoulli reproducible" `Quick test_fault_bernoulli_reproducible;
          Alcotest.test_case "bernoulli rate" `Quick test_fault_bernoulli_rate;
          Alcotest.test_case "burst stationary rate" `Quick test_fault_burst_stationary_rate;
          Alcotest.test_case "validation" `Quick test_fault_validation;
          Alcotest.test_case "reset_to determinism" `Quick
            test_fault_reset_to_determinism;
          QCheck_alcotest.to_alcotest prop_burst_loss_rate_converges;
          QCheck_alcotest.to_alcotest prop_fault_matches_float_reference;
          Alcotest.test_case "cut exact at a draw" `Quick
            test_fault_cut_exact_at_draw;
          Alcotest.test_case "deterministic skip" `Quick
            test_fault_deterministic_skip;
          QCheck_alcotest.to_alcotest prop_fault_interleavings_read_the_walk;
          Alcotest.test_case "alternating chain" `Quick
            test_fault_alternating_chain;
          Alcotest.test_case "law matches the LXM chain" `Slow
            test_fault_law_matches_lxm_chain;
        ] );
      ( "client",
        [
          Alcotest.test_case "error-free retrieval" `Quick test_client_error_free;
          Alcotest.test_case "B from slot 2" `Quick test_client_b_from_slot_2;
          Alcotest.test_case "single loss: ida vs flat" `Quick test_client_single_loss_ida_vs_flat;
          Alcotest.test_case "flat worst single loss" `Quick test_client_flat_worst_loss;
          Alcotest.test_case "max_slots cap" `Quick test_client_max_slots;
          Alcotest.test_case "validation" `Quick test_client_validation;
          Alcotest.test_case "typed retrieve_checked" `Quick
            test_client_retrieve_checked;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "error-free worst case" `Quick test_adversary_error_free_matches_lemma;
          Alcotest.test_case "flat = lemma-1 tight (Fig 7)" `Quick test_adversary_flat_is_lemma1_tight;
          Alcotest.test_case "ida beats flat" `Quick test_adversary_ida_beats_flat;
          Alcotest.test_case "lemma-2 bound within redundancy" `Quick
            test_adversary_lemma2_bound_within_redundancy;
          Alcotest.test_case "dominates random clients" `Quick
            test_adversary_dominates_random_clients;
          Alcotest.test_case "validation" `Quick test_adversary_validation;
        ] );
      ( "transport",
        [
          Alcotest.test_case "on air" `Quick test_transport_on_air;
          Alcotest.test_case "roundtrip error-free" `Quick test_transport_roundtrip_error_free;
          Alcotest.test_case "roundtrip under loss" `Quick test_transport_roundtrip_under_loss;
          Alcotest.test_case "validation" `Quick test_transport_validation;
        ] );
      ( "transaction",
        [
          Alcotest.test_case "concurrent harvest" `Quick test_transaction_concurrent_harvest;
          Alcotest.test_case "worst case is max not sum" `Quick
            test_transaction_worst_case_is_max_not_sum;
          Alcotest.test_case "dominates simulation" `Quick
            test_transaction_worst_case_dominates_simulation;
          Alcotest.test_case "shared budget" `Quick test_transaction_shared_budget;
          Alcotest.test_case "validation" `Quick test_transaction_validation;
          Alcotest.test_case "starved" `Quick test_transaction_starved;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic and sorted" `Quick
            test_workload_deterministic_and_sorted;
          Alcotest.test_case "rate scales volume" `Quick test_workload_rate_scales;
          Alcotest.test_case "zipf skew" `Quick test_workload_zipf_skew;
        ] );
      ( "engine",
        [
          Alcotest.test_case "error-free meets all" `Quick test_engine_error_free_all_meet;
          Alcotest.test_case "per-file consistency" `Quick test_engine_per_file_consistency;
          Alcotest.test_case "loss monotone" `Quick test_engine_loss_monotone;
          Alcotest.test_case "per-file miss ratio" `Quick
            test_engine_file_miss_ratio;
          Alcotest.test_case "pp_result lists per-file ratios" `Quick
            test_engine_pp_result_lists_per_file_ratios;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "error-free" `Quick test_experiment_error_free;
          Alcotest.test_case "lossy monotone" `Quick test_experiment_lossy_monotone;
          Alcotest.test_case "ida beats flat" `Quick test_experiment_ida_beats_flat_under_loss;
        ] );
      ( "cohort",
        [
          Alcotest.test_case "run equals engine (programs x faults x seeds)"
            `Quick test_cohort_run_equals_engine;
          Alcotest.test_case "run equals engine under max_slots" `Quick
            test_cohort_run_equals_engine_max_slots;
          Alcotest.test_case "run validation" `Quick test_cohort_run_validation;
          Alcotest.test_case "default window overflow names max_slots" `Quick
            test_default_window_overflow;
          Alcotest.test_case "classes of trace" `Quick
            test_cohort_classes_of_trace;
          Alcotest.test_case "population no-loss equals engine" `Quick
            test_cohort_population_no_loss_equals_engine;
          Alcotest.test_case "population mass conservation" `Quick
            test_cohort_population_mass_conservation;
          Alcotest.test_case "analytic close to sampled" `Quick
            test_cohort_population_analytic_close_to_sampled;
          Alcotest.test_case "population validation" `Quick
            test_cohort_population_validation;
          QCheck_alcotest.to_alcotest prop_cohort_permutation_invariant;
          QCheck_alcotest.to_alcotest prop_population_matches_oracle;
          Alcotest.test_case "population oracle at a tied cut" `Quick
            test_population_oracle_tied_cut;
          Alcotest.test_case "sweep window edge" `Quick test_sweep_window_edge;
          Alcotest.test_case "sweep after last offset" `Quick
            test_sweep_after_last_offset;
          Alcotest.test_case "sweep completing-slot losses" `Quick
            test_sweep_completing_slot_losses;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "deterministic and sorted" `Quick
            test_ycsb_deterministic;
          Alcotest.test_case "zipfian skew (chi-squared)" `Quick
            test_ycsb_zipfian_skew;
          Alcotest.test_case "hotspot shares" `Quick test_ycsb_hotspot;
          Alcotest.test_case "shifting rotates" `Quick
            test_ycsb_shifting_rotates;
          Alcotest.test_case "diurnal wave" `Quick test_ycsb_diurnal_wave;
          Alcotest.test_case "flash crowd" `Quick test_ycsb_flash_crowd;
          Alcotest.test_case "validation" `Quick test_ycsb_validation;
          Alcotest.test_case "generate validation" `Quick test_generate_validation;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "typed unknown-file errors" `Quick
            test_transport_unknown_file_typed;
          Alcotest.test_case "retrieve verdicts" `Quick test_retrieve_typed;
          Alcotest.test_case "resilient retry across cycles" `Quick
            test_retrieve_retries_across_cycles;
          Alcotest.test_case "resilient retries observable" `Quick
            test_retrieve_records_retries;
        ] );
    ]
