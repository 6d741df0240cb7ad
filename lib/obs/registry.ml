(* The process-wide metrics registry. Counters are sharded: one atomic
   slot per (hashed) domain id, incremented with a fetch-and-add on the
   caller's own slot, merged by summing on read — so Pool workers inside
   [Ida.disperse] count without cross-domain
   contention. Slots are spaced out at allocation time with dummy blocks
   so neighbouring atomics start on different cache lines (the GC may
   later move them; the sharding itself is what kills the contention).

   [reset] zeroes every metric *in place*: instrumentation sites hold
   handles obtained once at module initialization, and those handles
   must stay live across resets. *)

type counter = { c_slots : int Atomic.t array }
type gauge = { g_cell : int Atomic.t }

let shard_count = 64 (* power of two; domain ids hash with a mask *)

let padded_atomic () =
  let a = Atomic.make 0 in
  (* Spacer so consecutively allocated atomics land on distinct lines. *)
  ignore (Sys.opaque_identity (Array.make 15 0));
  a

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms_tbl : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
          let c = { c_slots = Array.init shard_count (fun _ -> padded_atomic ()) } in
          Hashtbl.add counters_tbl name c;
          c)

let add c v =
  let slot = (Domain.self () :> int) land (shard_count - 1) in
  ignore (Atomic.fetch_and_add c.c_slots.(slot) v)

let incr c = add c 1

let counter_value c =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.c_slots

let gauge name =
  with_lock (fun () ->
      match Hashtbl.find_opt gauges_tbl name with
      | Some g -> g
      | None ->
          let g = { g_cell = Atomic.make 0 } in
          Hashtbl.add gauges_tbl name g;
          g)

let set g v = Atomic.set g.g_cell v
let gauge_value g = Atomic.get g.g_cell

let histogram name =
  with_lock (fun () ->
      match Hashtbl.find_opt histograms_tbl name with
      | Some h -> h
      | None ->
          let h = Histogram.create () in
          Hashtbl.add histograms_tbl name h;
          h)

let sorted_fold tbl f =
  with_lock (fun () -> Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters () = sorted_fold counters_tbl counter_value
let gauges () = sorted_fold gauges_tbl gauge_value
let histograms () = sorted_fold histograms_tbl Fun.id

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ c -> Array.iter (fun a -> Atomic.set a 0) c.c_slots)
        counters_tbl;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_cell 0) gauges_tbl;
      Hashtbl.iter (fun _ h -> Histogram.reset h) histograms_tbl)
