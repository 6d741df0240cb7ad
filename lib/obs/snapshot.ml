type hist = {
  count : int;
  sum : int;
  lo : int; (* observed minimum; 0 when empty *)
  hi : int; (* observed maximum; 0 when empty *)
  buckets : (int * int) list; (* sparse (bucket index, count), ascending *)
}

type t = {
  tick : int;
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist) list;
  events : Trace.event list;
}

let hist_of_histogram h =
  {
    count = Histogram.count h;
    sum = Histogram.sum h;
    lo = Histogram.min_value h;
    hi = Histogram.max_value h;
    buckets = Histogram.buckets h;
  }

let take () =
  {
    tick = Trace.recorded ();
    counters = Registry.counters ();
    gauges = Registry.gauges ();
    histograms =
      List.map (fun (k, h) -> (k, hist_of_histogram h)) (Registry.histograms ());
    events = Trace.events ();
  }

let reset () =
  Registry.reset ();
  Trace.reset ()

let mean (h : hist) =
  if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count

(* Nearest-rank quantile over the sparse bucket list. Cumulative bucket
   counts partition the sorted sample by bucket index (bucketing is
   monotone in the value), so the selected bucket is exactly the bucket
   holding the rank-r sample; the estimate is that bucket's inclusive
   upper bound, hence within one bucket (a factor of ~sqrt 2) of the
   exact sorted-sample quantile. *)
let quantile (h : hist) p =
  if h.count = 0 then invalid_arg "Snapshot.quantile: empty";
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Snapshot.quantile: p out of [0, 1]";
  let r =
    min (h.count - 1)
      (max 0 (int_of_float (ceil (p *. float_of_int h.count)) - 1))
  in
  let rec go seen = function
    | [] -> invalid_arg "Snapshot.quantile: bucket counts disagree with count"
    | (b, n) :: rest ->
        if seen + n > r then if b = 0 then 0 else snd (Histogram.bucket_bounds b)
        else go (seen + n) rest
  in
  go 0 h.buckets
