module Stats = Pindisk_util.Stats
module Obs = Pindisk_obs

type file_stats = {
  file : int;
  requests : int;
  missed : int;
  latency : Stats.t;
}

type result = {
  requests : int;
  completed : int;
  missed : int;
  latency : Stats.t;
  losses : int;
  per_file : file_stats list;
}

type sinks = {
  requests_c : Obs.Registry.counter;
  completed_c : Obs.Registry.counter;
  missed_c : Obs.Registry.counter;
  losses_c : Obs.Registry.counter;
  wait_h : Obs.Histogram.t;
  file_wait : int -> Obs.Histogram.t;
  file_miss : int -> Obs.Registry.counter;
}

let sinks ~prefix =
  {
    requests_c = Obs.Registry.counter (prefix ^ ".requests");
    completed_c = Obs.Registry.counter (prefix ^ ".completed");
    missed_c = Obs.Registry.counter (prefix ^ ".missed");
    losses_c = Obs.Registry.counter (prefix ^ ".losses");
    wait_h = Obs.Registry.histogram (prefix ^ ".wait");
    file_wait =
      (fun f -> Obs.Registry.histogram (Printf.sprintf "%s.wait.%d" prefix f));
    file_miss =
      (fun f -> Obs.Registry.counter (Printf.sprintf "%s.miss.%d" prefix f));
  }

type row = {
  file : int;
  deadline : int;
  elapsed : int option;
  weight : int;
  losses : int;
}

(* The one aggregation fold every engine shares. Rows are consumed in the
   order given; a weight-1 row contributes exactly what [Engine.run]'s
   per-request fold contributed (same float accumulation into the latency
   accumulators), so engines that build weight-1 rows in trace order stay
   bit-for-bit equal to the original per-client path. *)
let retire ~sinks rows =
  (* At most one entry a row: sized once, the global accumulator never
     doubles (a population fold retires tens of thousands of rows). *)
  let global = Stats.create ~capacity:(List.length rows) () in
  let per_file : (int, int ref * int ref * Stats.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let file_entry f =
    match Hashtbl.find_opt per_file f with
    | Some e -> e
    | None ->
        let e = (ref 0, ref 0, Stats.create ()) in
        Hashtbl.add per_file f e;
        e
  in
  let obs = Obs.Control.enabled () in
  let requests = ref 0 and completed = ref 0 in
  let missed = ref 0 and losses = ref 0 in
  List.iter
    (fun (r : row) ->
      if r.weight < 0 then invalid_arg "Retire.retire: negative weight";
      if r.weight > 0 then begin
        let reqs, miss, lat = file_entry r.file in
        reqs := !reqs + r.weight;
        requests := !requests + r.weight;
        losses := !losses + r.losses;
        if obs then Obs.Registry.add sinks.requests_c r.weight;
        let record_miss () =
          missed := !missed + r.weight;
          miss := !miss + r.weight;
          if obs then begin
            Obs.Registry.add sinks.missed_c r.weight;
            Obs.Registry.add (sinks.file_miss r.file) r.weight
          end
        in
        match r.elapsed with
        | Some e ->
            completed := !completed + r.weight;
            Stats.add_weighted global (float_of_int e) r.weight;
            Stats.add_weighted lat (float_of_int e) r.weight;
            if obs then begin
              Obs.Registry.add sinks.completed_c r.weight;
              Obs.Histogram.observe_n sinks.wait_h e r.weight;
              Obs.Histogram.observe_n (sinks.file_wait r.file) e r.weight
            end;
            if e > r.deadline then record_miss ()
        | None -> record_miss ()
      end)
    rows;
  if obs then Obs.Registry.add sinks.losses_c !losses;
  {
    requests = !requests;
    completed = !completed;
    missed = !missed;
    latency = global;
    losses = !losses;
    per_file =
      Hashtbl.fold
        (fun file (reqs, miss, lat) acc ->
          { file; requests = !reqs; missed = !miss; latency = lat } :: acc)
        per_file []
      |> List.sort (fun (a : file_stats) b -> compare a.file b.file);
  }

let merge_stats a b =
  let s = Stats.create ~capacity:(Stats.entries a + Stats.entries b) () in
  Stats.absorb s a;
  Stats.absorb s b;
  s

let copy_stats a =
  let s = Stats.create ~capacity:(Stats.entries a) () in
  Stats.absorb s a;
  s

let merge_file (a : file_stats) (b : file_stats) =
  {
    file = a.file;
    requests = a.requests + b.requests;
    missed = a.missed + b.missed;
    latency = merge_stats a.latency b.latency;
  }

(* Merge-join two ascending per-file lists; a file on one side only is
   still re-absorbed into a fresh accumulator so the merged result never
   aliases either input's mutable state. *)
let rec merge_per_file (xs : file_stats list) (ys : file_stats list) =
  match (xs, ys) with
  | [], rest | rest, [] ->
      List.map (fun (f : file_stats) -> { f with latency = copy_stats f.latency }) rest
  | x :: xs', y :: ys' ->
      if x.file = y.file then merge_file x y :: merge_per_file xs' ys'
      else if x.file < y.file then
        { x with latency = copy_stats x.latency } :: merge_per_file xs' ys
      else { y with latency = copy_stats y.latency } :: merge_per_file xs ys'

let merge a b =
  {
    requests = a.requests + b.requests;
    completed = a.completed + b.completed;
    missed = a.missed + b.missed;
    latency = merge_stats a.latency b.latency;
    losses = a.losses + b.losses;
    per_file = merge_per_file a.per_file b.per_file;
  }
