module Stats = Pindisk_util.Stats

(* Handles hoisted so repeated runs reuse the interned metrics; the
   per-file mirrors are interned on first touch inside the fold. *)
let sinks = Retire.sinks ~prefix:"engine"

type file_stats = Retire.file_stats = {
  file : int;
  requests : int;
  missed : int;
  latency : Stats.t;
}

type result = Retire.result = {
  requests : int;
  completed : int;
  missed : int;
  latency : Stats.t;
  losses : int;
  per_file : file_stats list;
}

let miss_ratio r =
  if r.requests = 0 then 0.0
  else float_of_int r.missed /. float_of_int r.requests

let file_miss_ratio (f : file_stats) =
  if f.requests = 0 then 0.0
  else float_of_int f.missed /. float_of_int f.requests

let run ?max_slots ~program ~fault ~seed trace =
  let rows =
    List.mapi
      (fun k (r : Workload.request) ->
        let outcome =
          match
            Client.retrieve ?max_slots ~program ~file:r.Workload.file
              ~needed:r.Workload.needed ~start:r.Workload.issued
              ~fault:(fault ~seed:(Pindisk_util.Intmath.mix64 (seed + k))) ()
          with
          | Ok o -> o
          | Error e ->
              invalid_arg (Format.asprintf "Engine.run: %a" Client.pp_error e)
        in
        {
          Retire.file = r.Workload.file;
          deadline = r.Workload.deadline;
          elapsed = outcome.Client.elapsed;
          weight = 1;
          losses = outcome.Client.losses;
        })
      trace
  in
  Retire.retire ~sinks rows

let pp_file_stats ppf (f : file_stats) =
  Format.fprintf ppf "file %d: %d requests, %d missed (%.1f%%)" f.file
    f.requests f.missed
    (100.0 *. file_miss_ratio f)

let pp_result ppf r =
  Format.fprintf ppf "%d requests, %d completed, %d missed (%.1f%%); latency %a"
    r.requests r.completed r.missed
    (100.0 *. miss_ratio r)
    Stats.pp_summary r.latency;
  List.iter
    (fun f -> Format.fprintf ppf "@.  %a" pp_file_stats f)
    r.per_file
