module Item = Pindisk_rtdb.Item
module Mode = Pindisk_rtdb.Mode
module Admission = Pindisk_rtdb.Admission
module Database = Pindisk_rtdb.Database
module Aida = Pindisk_ida.Aida
module Program = Pindisk.Program
module Bandwidth = Pindisk.Bandwidth
module File_spec = Pindisk.File_spec
module Verify = Pindisk_pinwheel.Verify
module Q = Pindisk_util.Q

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The AWACS scenario of the paper's introduction, scaled to deciseconds so
   the aircraft's 0.4 s constraint is an integer (4 ds). *)
let aircraft = Item.make ~id:0 ~name:"aircraft" ~blocks:2 ~avi:4 ~value:10 ()
let tank = Item.make ~id:1 ~name:"tank" ~blocks:2 ~avi:60 ~value:5 ()
let terrain = Item.make ~id:2 ~name:"terrain" ~blocks:8 ~avi:120 ~value:1 ()
let awacs_items = [ aircraft; tank; terrain ]

let combat =
  Mode.make ~name:"combat" ~default:Aida.Standard
    [ ("aircraft", Aida.Critical 3); ("terrain", Aida.Non_real_time) ]

let landing =
  Mode.make ~name:"landing" ~default:Aida.Non_real_time
    [ ("terrain", Aida.Standard) ]

(* ------------------------------------------------------------------ *)
(* Item                                                                *)
(* ------------------------------------------------------------------ *)

let test_avi_of_velocity () =
  (* The paper's numbers: 900 km/h at 100 m accuracy -> 0.4 s; 60 km/h ->
     6 s. *)
  Alcotest.(check (float 1e-9)) "aircraft" 0.4
    (Item.avi_of_velocity ~velocity_kmh:900.0 ~accuracy_m:100.0);
  Alcotest.(check (float 1e-9)) "tank" 6.0
    (Item.avi_of_velocity ~velocity_kmh:60.0 ~accuracy_m:100.0)

let test_avi_of_velocity_rejects () =
  (* NaN fails every comparison, so a [v <= 0.0] guard lets it through;
     an infinite velocity would give a 0 s interval. *)
  List.iter
    (fun v ->
      Alcotest.check_raises
        (Printf.sprintf "velocity %h" v)
        (Invalid_argument "Item.avi_of_velocity: velocity") (fun () ->
          ignore (Item.avi_of_velocity ~velocity_kmh:v ~accuracy_m:100.0));
      Alcotest.check_raises
        (Printf.sprintf "accuracy %h" v)
        (Invalid_argument "Item.avi_of_velocity: accuracy") (fun () ->
          ignore (Item.avi_of_velocity ~velocity_kmh:900.0 ~accuracy_m:v)))
    [ nan; infinity; neg_infinity; 0.0; -1.0 ]

let test_item_validation () =
  Alcotest.check_raises "bad avi" (Invalid_argument "Item.make: avi must be >= 1")
    (fun () -> ignore (Item.make ~id:0 ~name:"x" ~blocks:1 ~avi:0 ()))

(* ------------------------------------------------------------------ *)
(* Mode                                                                *)
(* ------------------------------------------------------------------ *)

let test_mode_criticality () =
  check_int "aircraft in combat" 3 (Mode.tolerance combat aircraft);
  check_int "tank falls to default" 1 (Mode.tolerance combat tank);
  check_int "terrain dialled down" 0 (Mode.tolerance combat terrain);
  check_int "aircraft in landing" 0 (Mode.tolerance landing aircraft)

let test_mode_to_file_spec () =
  let f = Mode.to_file_spec combat aircraft in
  check_int "blocks" 2 f.File_spec.blocks;
  check_int "latency = avi" 4 f.File_spec.latency;
  check_int "tolerance" 3 f.File_spec.tolerance;
  check_int "capacity m+r" 5 f.File_spec.capacity;
  Alcotest.(check string) "name carried" "aircraft" f.File_spec.name

let test_max_tolerance () =
  check_int "aircraft worst over modes" 3 (Mode.max_tolerance [ combat; landing ] aircraft);
  check_int "terrain worst over modes" 1 (Mode.max_tolerance [ combat; landing ] terrain)

let test_mode_validation () =
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Mode.make: duplicate item names") (fun () ->
      ignore (Mode.make ~name:"m" [ ("a", Aida.Standard); ("a", Aida.Important) ]))

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let test_demand_and_density () =
  (* aircraft under combat: (2 + 3) / 4. *)
  Alcotest.(check string) "demand" "5/4" (Q.to_string (Admission.demand ~mode:combat aircraft));
  check_bool "value density" true
    (abs_float (Admission.value_density ~mode:combat aircraft -. 8.0) < 1e-9)

let test_admit_everything_when_rich () =
  let v = Admission.admit ~bandwidth:10 ~mode:combat awacs_items in
  check_bool "all admitted" true (v.Admission.rejected = []);
  check_int "three items" 3 (List.length v.Admission.admitted);
  match v.Admission.program with
  | Some p ->
      check_bool "program satisfies admitted set" true
        (Verify.satisfies (Program.schedule p)
           (Bandwidth.tasks ~bandwidth:10 (Mode.file_specs combat awacs_items)))
  | None -> Alcotest.fail "program expected"

let test_admit_prefers_value_density () =
  (* Starve the channel so the whole load cannot fit; the high-value-
     density aircraft feed must survive and the bulky video feed must
     not. Demands under combat: aircraft (2+3)/4 = 1.25, video
     (50+1)/30 = 1.7 — together 2.95 > bandwidth 2. *)
  let video = Item.make ~id:3 ~name:"video" ~blocks:50 ~avi:30 ~value:5 () in
  let v = Admission.admit ~bandwidth:2 ~mode:combat [ aircraft; video ] in
  check_bool "aircraft admitted" true
    (List.exists (fun i -> i.Item.name = "aircraft") v.Admission.admitted);
  check_bool "video rejected" true
    (List.exists (fun i -> i.Item.name = "video") v.Admission.rejected)

let test_admit_respects_schedulability () =
  (* Whatever was admitted really is schedulable at the bandwidth. *)
  List.iter
    (fun bandwidth ->
      let v = Admission.admit ~bandwidth ~mode:combat awacs_items in
      match v.Admission.admitted with
      | [] -> ()
      | admitted ->
          check_bool
            (Printf.sprintf "schedulable at B=%d" bandwidth)
            true
            (Bandwidth.schedulable ~bandwidth (Mode.file_specs combat admitted)))
    [ 1; 2; 3; 4; 5 ]

let test_admit_bandwidth_one () =
  (* A single-slot channel: the aircraft's combat demand (2+3)/4 > 1 can
     never fit, but the cheap items still go through — degradation, not
     collapse. *)
  let v = Admission.admit ~bandwidth:1 ~mode:combat awacs_items in
  check_bool "something admitted" true (v.Admission.admitted <> []);
  check_bool "aircraft rejected at B=1" true
    (List.exists (fun i -> i.Item.name = "aircraft") v.Admission.rejected);
  check_bool "a program exists for the survivors" true
    (v.Admission.program <> None);
  check_bool "not everything fits" false (v.Admission.rejected = [])

let test_admit_empty_candidates () =
  let v = Admission.admit ~bandwidth:4 ~mode:combat [] in
  check_int "nothing admitted" 0 (List.length v.Admission.admitted);
  check_int "nothing rejected" 0 (List.length v.Admission.rejected);
  check_bool "no program for an empty set" true (v.Admission.program = None);
  check_bool "vacuously all admitted" true (v.Admission.rejected = [])

let test_admit_duplicate_ids () =
  let clone = Item.make ~id:0 ~name:"aircraft-clone" ~blocks:1 ~avi:8 () in
  Alcotest.check_raises "duplicate ids rejected"
    (Invalid_argument "Admission.admit: duplicate item ids") (fun () ->
      ignore (Admission.admit ~bandwidth:4 ~mode:combat [ aircraft; clone ]))

let test_admit_bandwidth_validation () =
  Alcotest.check_raises "bandwidth below one"
    (Invalid_argument "Admission.admit: bandwidth must be >= 1") (fun () ->
      ignore (Admission.admit ~bandwidth:0 ~mode:combat awacs_items))

(* ------------------------------------------------------------------ *)
(* Database                                                            *)
(* ------------------------------------------------------------------ *)

let db () = Database.create ~items:awacs_items ~modes:[ combat; landing ]

let test_database_provisioning () =
  let d = db () in
  (* Capacity covers the worst mode, so mode switches never re-disperse. *)
  check_int "aircraft capacity" 5 (Database.provisioned_capacity d aircraft);
  check_int "terrain capacity" 9 (Database.provisioned_capacity d terrain);
  List.iter
    (fun mode ->
      List.iter
        (fun f -> check_int "capacity fixed across modes"
            (Database.provisioned_capacity d
               (List.find (fun i -> i.Item.id = f.File_spec.id) awacs_items))
            f.File_spec.capacity)
        (Database.file_specs d ~mode))
    [ combat; landing ]

let test_database_programs_per_mode () =
  let d = db () in
  List.iter
    (fun mode ->
      match Database.program d ~mode with
      | None -> Alcotest.failf "no program for %s" mode.Mode.name
      | Some (b, p) ->
          check_bool "bandwidth at most eq-2" true
            (b <= Database.required_bandwidth d ~mode);
          check_bool "verifies" true
            (Verify.satisfies (Program.schedule p)
               (Bandwidth.tasks ~bandwidth:b (Database.file_specs d ~mode))))
    [ combat; landing ]

let test_database_combat_needs_more_bandwidth () =
  let d = db () in
  check_bool "combat demand exceeds landing demand" true
    (Database.required_bandwidth d ~mode:combat
    >= Database.required_bandwidth d ~mode:landing)

let test_database_validation () =
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Database.create: duplicate item ids") (fun () ->
      ignore
        (Database.create
           ~items:[ aircraft; Item.make ~id:0 ~name:"other" ~blocks:1 ~avi:5 () ]
           ~modes:[ combat ]));
  Alcotest.check_raises "no modes" (Invalid_argument "Database.create: no modes")
    (fun () -> ignore (Database.create ~items:[ aircraft ] ~modes:[]))

let test_database_lookup () =
  let d = db () in
  check_bool "mode found" true (Database.mode d "combat" <> None);
  check_bool "mode missing" true (Database.mode d "cruise" = None)

let () =
  Alcotest.run "rtdb"
    [
      ( "item",
        [
          Alcotest.test_case "avi_of_velocity (paper numbers)" `Quick test_avi_of_velocity;
          Alcotest.test_case "avi_of_velocity rejects NaN, inf" `Quick
            test_avi_of_velocity_rejects;
          Alcotest.test_case "validation" `Quick test_item_validation;
        ] );
      ( "mode",
        [
          Alcotest.test_case "criticality" `Quick test_mode_criticality;
          Alcotest.test_case "to_file_spec" `Quick test_mode_to_file_spec;
          Alcotest.test_case "max_tolerance" `Quick test_max_tolerance;
          Alcotest.test_case "validation" `Quick test_mode_validation;
        ] );
      ( "admission",
        [
          Alcotest.test_case "demand and value density" `Quick test_demand_and_density;
          Alcotest.test_case "rich channel admits all" `Quick test_admit_everything_when_rich;
          Alcotest.test_case "prefers value density" `Quick test_admit_prefers_value_density;
          Alcotest.test_case "respects schedulability" `Quick test_admit_respects_schedulability;
          Alcotest.test_case "bandwidth one" `Quick test_admit_bandwidth_one;
          Alcotest.test_case "empty candidates" `Quick test_admit_empty_candidates;
          Alcotest.test_case "duplicate ids" `Quick test_admit_duplicate_ids;
          Alcotest.test_case "bandwidth validation" `Quick
            test_admit_bandwidth_validation;
        ] );
      ( "database",
        [
          Alcotest.test_case "provisioning" `Quick test_database_provisioning;
          Alcotest.test_case "programs per mode" `Quick test_database_programs_per_mode;
          Alcotest.test_case "combat needs more" `Quick test_database_combat_needs_more_bandwidth;
          Alcotest.test_case "validation" `Quick test_database_validation;
          Alcotest.test_case "lookup" `Quick test_database_lookup;
        ] );
    ]
