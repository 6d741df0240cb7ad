(* Deployment walk: physical requirements to bytes on the air.

   The other examples each exercise one layer; this one is the whole
   journey a deployment takes:

     1. physical requirements (bytes, seconds, losses to survive)
     2. Designer: block size + bandwidth + verified program
     3. Codec: the program as an artifact you can ship and diff
     4. Transport: real payloads dispersed and broadcast
     5. a client behind a nasty channel getting its bits back

   Run with: dune exec examples/deployment.exe *)

module Designer = Pindisk.Designer
module Codec = Pindisk.Codec
module Program = Pindisk.Program
module Transport = Pindisk_sim.Transport
module Fault = Pindisk_sim.Fault

let () =
  (* 1. What the operator knows. *)
  let requirements =
    [
      Designer.requirement ~name:"incidents" ~id:0 ~bytes:1800 ~latency_s:3
        ~tolerance:2 ();
      Designer.requirement ~name:"guidance" ~id:1 ~bytes:5000 ~latency_s:12
        ~tolerance:1 ();
      Designer.requirement ~name:"map-tile" ~id:2 ~bytes:24_000 ~latency_s:45 ();
    ]
  in
  let byte_rate = 4096 in
  Format.printf "Channel: %d bytes/sec. Requirements:@." byte_rate;
  List.iter
    (fun r ->
      Format.printf "  %-10s %6d bytes within %2d s, surviving %d losses@."
        r.Designer.name r.Designer.bytes r.Designer.latency_s
        r.Designer.tolerance)
    requirements;

  (* 2. The plan. *)
  let plan =
    match Designer.plan ~byte_rate requirements with
    | Ok p -> p
    | Error reason -> failwith reason
  in
  Format.printf "@.%a@." Designer.pp plan;

  (* 3. The program as an artifact. *)
  let path = Filename.temp_file "pindisk" ".bdp" in
  Codec.write plan.Designer.program path;
  Format.printf "program artifact written (%d bytes)@."
    (String.length (Codec.to_string plan.Designer.program));

  (* 4-5. Payloads on the air; a vehicle in a tunnel gets them anyway. *)
  let pad name target =
    let base = Printf.sprintf "[%s payload] " name in
    let b = Buffer.create target in
    while Buffer.length b < target do
      Buffer.add_string b base
    done;
    Bytes.of_string (Buffer.sub b 0 target)
  in
  let transport =
    Transport.create ~program:plan.Designer.program
      (List.map
         (fun (fp : Designer.file_plan) ->
           ( fp.Designer.spec.Pindisk.File_spec.id,
             fp.Designer.spec.Pindisk.File_spec.blocks,
             pad fp.Designer.spec.Pindisk.File_spec.name
               (List.find
                  (fun r -> r.Designer.id = fp.Designer.spec.Pindisk.File_spec.id)
                  requirements)
                 .Designer.bytes ))
         plan.Designer.files)
  in
  let tunnel ~seed =
    Fault.burst ~p_good_to_bad:0.08 ~p_bad_to_good:0.25 ~loss_good:0.02
      ~loss_bad:0.7 ~seed
  in
  List.iter
    (fun (r : Designer.requirement) ->
      match
        Transport.retrieve transport ~file:r.Designer.id ~start:5
          ~fault:(tunnel ~seed:(r.Designer.id + 1))
      with
      | Ok bytes ->
          Format.printf "  %-10s reconstructed: %d bytes, prefix %S@."
            r.Designer.name (Bytes.length bytes)
            (Bytes.sub_string bytes 0 (min 24 (Bytes.length bytes)))
      | Error _ -> Format.printf "  %-10s FAILED to reconstruct@." r.Designer.name)
    requirements;
  Sys.remove path
