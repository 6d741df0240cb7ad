module Program = Pindisk.Program

type request = { issued : int; file : int; needed : int; deadline : int }

let generate ~program ~rate ~theta ~needed_of ~deadline_of ~horizon ~seed =
  if not (rate > 0.0) then
    invalid_arg "Workload.generate: rate must be positive";
  if not (Float.is_finite rate) then
    invalid_arg "Workload.generate: rate must be finite";
  if not (theta >= 0.0) then invalid_arg "Workload.generate: negative theta";
  if horizon < 1 then invalid_arg "Workload.generate: horizon must be >= 1";
  let files = Array.of_list (Program.files program) in
  let n = Array.length files in
  if n = 0 then invalid_arg "Workload.generate: empty program";
  let weights = Cache.zipf_weights ~n ~theta in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cumulative.(i) <- !acc)
    weights;
  let rng = Random.State.make [| seed; horizon; 0x3017 |] in
  let draw_file () =
    let u = Random.State.float rng 1.0 in
    let rec find i = if i >= n - 1 || cumulative.(i) >= u then i else find (i + 1) in
    files.(find 0)
  in
  let rec go t acc =
    (* Exponential inter-arrival gap, at least 0 slots. *)
    let gap = -.log (1.0 -. Random.State.float rng 1.0) /. rate in
    let t = t +. gap in
    let slot = int_of_float t in
    if slot >= horizon then List.rev acc
    else
      let file = draw_file () in
      let r =
        {
          issued = slot;
          file;
          needed = needed_of file;
          deadline = deadline_of file;
        }
      in
      go t (r :: acc)
  in
  go 0.0 []

type popularity =
  | Zipfian of { theta : float }
  | Hotspot of { hot_fraction : float; hot_weight : float }
  | Shifting of { theta : float; every : int }

type arrivals =
  | Steady
  | Diurnal of { period : int; trough : float }
  | Flash of { at : int; magnitude : float; width : int }

let ycsb ~program ~rate ~popularity ~arrivals ~needed_of ~deadline_of ~horizon
    ~seed =
  if not (rate > 0.0) then
    invalid_arg "Workload.ycsb: rate must be positive";
  if not (Float.is_finite rate) then
    invalid_arg "Workload.ycsb: rate must be finite";
  if horizon < 1 then invalid_arg "Workload.ycsb: horizon must be >= 1";
  let files = Array.of_list (Program.files program) in
  let n = Array.length files in
  if n = 0 then invalid_arg "Workload.ycsb: empty program";
  let cumulative_of weights =
    let cumulative = Array.make n 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i w ->
        acc := !acc +. w;
        cumulative.(i) <- !acc)
      weights;
    cumulative
  in
  let search cumulative u =
    let rec find i =
      if i >= n - 1 || cumulative.(i) >= u then i else find (i + 1)
    in
    find 0
  in
  (* [pick slot u]: the requested file, given the uniform draw [u]. Only
     [Shifting] actually looks at the slot — the zipf ranking rotates one
     position every [every] slots, modelling popularity churn. *)
  let pick =
    match popularity with
    | Zipfian { theta } ->
        if not (theta >= 0.0) then invalid_arg "Workload.ycsb: negative theta";
        let cumulative = cumulative_of (Cache.zipf_weights ~n ~theta) in
        fun _slot u -> files.(search cumulative u)
    | Hotspot { hot_fraction; hot_weight } ->
        if not (hot_fraction > 0.0 && hot_fraction <= 1.0) then
          invalid_arg "Workload.ycsb: hot_fraction must be in (0, 1]";
        if not (hot_weight >= 0.0 && hot_weight <= 1.0) then
          invalid_arg "Workload.ycsb: hot_weight must be in [0, 1]";
        let hot = max 1 (min n (int_of_float (ceil (hot_fraction *. float_of_int n)))) in
        let weights =
          Array.init n (fun i ->
              if hot = n then 1.0 /. float_of_int n
              else if i < hot then hot_weight /. float_of_int hot
              else (1.0 -. hot_weight) /. float_of_int (n - hot))
        in
        let cumulative = cumulative_of weights in
        fun _slot u -> files.(search cumulative u)
    | Shifting { theta; every } ->
        if not (theta >= 0.0) then invalid_arg "Workload.ycsb: negative theta";
        if every < 1 then invalid_arg "Workload.ycsb: every must be >= 1";
        let cumulative = cumulative_of (Cache.zipf_weights ~n ~theta) in
        fun slot u ->
          let rotation = slot / every mod n in
          files.((search cumulative u + rotation) mod n)
  in
  (* Arrival-rate envelope for Lewis thinning: candidates arrive at the
     peak rate, and each survives with probability rate(slot)/peak. *)
  let peak =
    match arrivals with
    | Steady -> rate
    | Diurnal { period; trough } ->
        if period < 1 then invalid_arg "Workload.ycsb: period must be >= 1";
        if not (trough >= 0.0 && trough <= 1.0) then
          invalid_arg "Workload.ycsb: trough must be in [0, 1]";
        rate
    | Flash { at; magnitude; width } ->
        if at < 0 then invalid_arg "Workload.ycsb: flash slot must be >= 0";
        if not (magnitude >= 1.0) then
          invalid_arg "Workload.ycsb: magnitude must be >= 1";
        if not (Float.is_finite magnitude) then
          invalid_arg "Workload.ycsb: magnitude must be finite";
        if width < 1 then invalid_arg "Workload.ycsb: width must be >= 1";
        rate *. magnitude
  in
  let rate_at slot =
    match arrivals with
    | Steady -> rate
    | Diurnal { period; trough } ->
        let wave =
          0.5
          *. (1.0
             +. sin (2.0 *. Float.pi *. float_of_int slot /. float_of_int period))
        in
        rate *. (trough +. ((1.0 -. trough) *. wave))
    | Flash { at; magnitude; width } ->
        let bump =
          Float.max 0.0
            (1.0 -. (float_of_int (abs (slot - at)) /. float_of_int width))
        in
        rate *. (1.0 +. ((magnitude -. 1.0) *. bump))
  in
  let rng = Random.State.make [| seed; horizon; 0x9c5b |] in
  let rec go t acc =
    let gap = -.log (1.0 -. Random.State.float rng 1.0) /. peak in
    let t = t +. gap in
    let slot = int_of_float t in
    if slot >= horizon then List.rev acc
    else if Random.State.float rng 1.0 < rate_at slot /. peak then begin
      let file = pick slot (Random.State.float rng 1.0) in
      let r =
        {
          issued = slot;
          file;
          needed = needed_of file;
          deadline = deadline_of file;
        }
      in
      go t (r :: acc)
    end
    else go t acc
  in
  go 0.0 []
