module Program = Pindisk.Program

type policy = Lru | Lfu | Pix

let pp_policy ppf = function
  | Lru -> Format.fprintf ppf "LRU"
  | Lfu -> Format.fprintf ppf "LFU"
  | Pix -> Format.fprintf ppf "PIX"

type stats = { accesses : int; hits : int; mean_latency : float }

let hit_ratio s = float_of_int s.hits /. float_of_int s.accesses

let zipf_weights ~n ~theta =
  if n < 1 then invalid_arg "Cache.zipf_weights: n must be >= 1";
  if not (theta >= 0.0) then invalid_arg "Cache.zipf_weights: negative theta";
  let raw = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 raw in
  Array.map (fun w -> w /. total) raw

(* Wait (in slots, inclusive of the transmission slot) from [t] until the
   page is next on the air. *)
let wait_for program file t =
  let cycle = Program.data_cycle program in
  let rec go d =
    if d > cycle then invalid_arg "Cache.simulate: page never broadcast"
    else
      match Program.block_at program (t + d) with
      | Some (f, _) when f = file -> d + 1
      | Some _ | None -> go (d + 1)
  in
  go 0

let simulate ~program ~cache_slots ~policy ~theta ~accesses ~seed () =
  if cache_slots < 0 then invalid_arg "Cache.simulate: negative cache size";
  if accesses < 1 then invalid_arg "Cache.simulate: accesses must be >= 1";
  let files = Array.of_list (Program.files program) in
  let n = Array.length files in
  if n = 0 then invalid_arg "Cache.simulate: empty program";
  Array.iter
    (fun f ->
      if Program.capacity program f <> 1 then
        invalid_arg "Cache.simulate: page-granularity programs only")
    files;
  let weights = zipf_weights ~n ~theta in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cumulative.(i) <- !acc)
    weights;
  let rng = Random.State.make [| seed; n; accesses |] in
  let draw () =
    let u = Random.State.float rng 1.0 in
    let rec find i = if i >= n - 1 || cumulative.(i) >= u then i else find (i + 1) in
    files.(find 0)
  in
  (* Broadcast frequency of each page: occurrences per period. *)
  let frequency = Hashtbl.create 16 in
  Array.iter
    (fun f -> Hashtbl.replace frequency f (Program.occurrences_per_period program f))
    files;
  let weight_of = Hashtbl.create 16 in
  Array.iteri (fun i f -> Hashtbl.replace weight_of f weights.(i)) files;
  (* Cache state: page -> (last_used, use_count). *)
  let cache = Hashtbl.create 16 in
  let evict_score page (last_used, count) =
    match policy with
    | Lru -> float_of_int last_used
    | Lfu -> float_of_int count
    | Pix ->
        Hashtbl.find weight_of page
        /. float_of_int (max 1 (Hashtbl.find frequency page))
  in
  let hits = ref 0 and latency = ref 0 in
  let now = ref 0 in
  for access = 1 to accesses do
    let page = draw () in
    (match Hashtbl.find_opt cache page with
    | Some (_, count) -> begin
        incr hits;
        Hashtbl.replace cache page (access, count + 1)
      end
    | None ->
        let wait = wait_for program page !now in
        latency := !latency + wait;
        now := !now + wait;
        if cache_slots > 0 then begin
          if Hashtbl.length cache >= cache_slots then begin
            (* Evict the entry with the lowest score. *)
            let victim = ref None in
            Hashtbl.iter
              (fun p entry ->
                let s = evict_score p entry in
                match !victim with
                | Some (_, best) when best <= s -> ()
                | _ -> victim := Some (p, s))
              cache;
            match !victim with
            | Some (p, _) -> Hashtbl.remove cache p
            | None -> ()
          end;
          Hashtbl.replace cache page (access, 1)
        end);
    now := !now + 1
  done;
  {
    accesses;
    hits = !hits;
    mean_latency = float_of_int !latency /. float_of_int accesses;
  }
