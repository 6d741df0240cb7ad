module Program = Pindisk.Program
module Ida = Pindisk_ida.Ida
module Obs = Pindisk_obs

let obs_requests = Obs.Registry.counter "sim.transport.requests"
let obs_reconstructs = Obs.Registry.counter "sim.transport.reconstructs"
let obs_wait = Obs.Registry.histogram "sim.transport.wait"

type error =
  | Timeout of { slots : int; collected : int; needed : int }
  | Unknown_file of int
  | Reconstruct_failed of string

type stored = {
  m : int;
  length : int;
  ida : Ida.t;
  pieces : Ida.piece array; (* all [capacity] dispersed pieces *)
}

type t = { program : Program.t; store : (int, stored) Hashtbl.t }

let create ~program files =
  let store = Hashtbl.create 8 in
  List.iter
    (fun (file, m, content) ->
      let capacity =
        match Program.capacity program file with
        | exception Not_found ->
            invalid_arg
              (Printf.sprintf "Transport.create: file %d not in program" file)
        | c -> c
      in
      if m < 1 || m > capacity then
        invalid_arg "Transport.create: need 1 <= m <= capacity";
      let ida = Ida.create ~m in
      let pieces = Ida.disperse ida ~n:capacity content in
      Hashtbl.replace store file
        { m; length = Bytes.length content; ida; pieces })
    files;
  List.iter
    (fun f ->
      if not (Hashtbl.mem store f) then
        invalid_arg (Printf.sprintf "Transport.create: no content for file %d" f))
    (Program.files program);
  { program; store }

let on_air t slot =
  match Program.block_at t.program slot with
  | None -> None
  | Some (file, idx) ->
      let s = Hashtbl.find t.store file in
      let piece = s.pieces.(idx) in
      Obs.Trace.record (Obs.Trace.Slot { slot; file; index = piece.Ida.index });
      Some (file, piece)

(* Listen from [start] for at most 100 data cycles, collecting distinct
   pieces of [file]; reconstruct as soon as [m] distinct indices are
   present. *)
let retrieve t ~file ~start ~fault =
  if start < 0 then invalid_arg "Transport.retrieve: negative start";
  match Hashtbl.find_opt t.store file with
  | None -> Error (Unknown_file file)
  | Some stored ->
      let budget = Program.data_cycles t.program 100 in
      let obs = Obs.Control.enabled () in
      if obs then Obs.Registry.incr obs_requests;
      Fault.reset_to fault start;
      let collected = Hashtbl.create 16 in
      let slot = ref start in
      let result = ref None in
      while !result = None && !slot - start < budget do
        let lost = Fault.advance fault in
        (match on_air t !slot with
        | Some (f, piece) ->
            if f = file && not lost then
              if not (Hashtbl.mem collected piece.Ida.index) then begin
                Hashtbl.replace collected piece.Ida.index piece;
                if Hashtbl.length collected >= stored.m then begin
                  let pieces =
                    Hashtbl.fold (fun _ p acc -> p :: acc) collected []
                  in
                  match
                    Ida.reconstruct stored.ida ~length:stored.length pieces
                  with
                  | bytes ->
                      result := Some (Ok bytes);
                      if obs then begin
                        Obs.Registry.incr obs_reconstructs;
                        Obs.Histogram.observe obs_wait (!slot - start + 1);
                        Obs.Trace.record
                          (Obs.Trace.Reconstruct
                             { file; pieces = stored.m; bytes = stored.length })
                      end
                  | exception Invalid_argument msg ->
                      result := Some (Error (Reconstruct_failed msg))
                end
              end
        | None -> ());
        incr slot
      done;
      match !result with
      | Some r -> r
      | None ->
          Error
            (Timeout
               {
                 slots = !slot - start;
                 collected = Hashtbl.length collected;
                 needed = stored.m;
               })
