module Gf256 = Pindisk_gf256.Gf256
module Matrix = Pindisk_gf256.Matrix
module Pool = Pindisk_util.Pool
module Obs = Pindisk_obs

(* Observability handles, registered once at module init. [obs_tasks]
   counts kernel calls, one per coded (disperse) or erased (reconstruct)
   row x column block, and is bumped inside the task closures, i.e. from
   whichever domain runs the task — exactly the cross-domain pattern the
   sharded counters exist for (and what the parallel-correctness test
   exercises). *)
let obs_disperse_calls = Obs.Registry.counter "ida.disperse.calls"
let obs_disperse_bytes = Obs.Registry.counter "ida.disperse.bytes"
let obs_reconstruct_calls = Obs.Registry.counter "ida.reconstruct.calls"
let obs_reconstruct_bytes = Obs.Registry.counter "ida.reconstruct.bytes"
let obs_tasks = Obs.Registry.counter "ida.encode.groups"
let obs_cache_hits = Obs.Registry.counter "ida.cache.hits"
let obs_cache_misses = Obs.Registry.counter "ida.cache.misses"

type piece = { index : int; data : bytes }

(* One cached reconstruction inverse. Entries are immutable: publication
   into the lock-free cache below is a CAS of the whole entry, so a
   reader either sees nothing or sees the complete entry with its
   compiled rows — no seqlock or per-field synchronization is needed.
   Each inverse row is classified once: row [j] equal to the unit vector
   e_k means source block [j] arrived verbatim as chosen piece [k]
   (every systematic piece, and every piece when m = 1), so only the
   remaining, erased rows carry a kernel schedule. *)
type inverse_entry = {
  key : int array; (* sorted piece indices *)
  verbatim : int array; (* verbatim.(j) = k if row j is e_k, else -1 *)
  erased : int array; (* the rows j with verbatim.(j) = -1, ascending *)
  schedules : Gf256.schedule array; (* schedules.(e) rebuilds erased.(e) *)
  stamp : int; (* creation order, for oldest-first replacement *)
}

(* The inverse cache: a fixed-size open-addressed table of atomic slots.
   Lookups scan a bounded probe window; inserts claim an empty slot with
   CAS (guarded by [live] so the entry count never exceeds [cap]) or
   replace the oldest entry in the window. Everything is wait-free
   except the bounded reservation loop, and a lost race costs at most a
   redundant inverse computation — never a torn read. *)
type cache = {
  cap : int;
  live : int Atomic.t; (* entries present, kept <= cap *)
  slots : inverse_entry option Atomic.t array; (* power-of-two size *)
}

type t = {
  m : int;
  dispersal : Matrix.t; (* 255 x m systematic; row i produces piece i *)
  cache : cache Atomic.t;
  stamp : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

(* Cumulative count of row-encode passes (one per piece produced or source
   block rebuilt, whether by kernel or by systematic blit); lets tests
   assert that no encode work is wasted. *)
let passes = Atomic.make 0
let encode_passes () = Atomic.get passes

let row_coeffs matrix i =
  Array.init (Matrix.cols matrix) (fun j -> Matrix.get matrix i j)

let probe_window = 8

let make_cache cap =
  let size =
    let rec pow2 s = if s >= cap * 2 then s else pow2 (2 * s) in
    pow2 8
  in
  {
    cap;
    live = Atomic.make 0;
    slots = Array.init size (fun _ -> Atomic.make None);
  }

let create ~m =
  if m < 1 || m > 255 then invalid_arg "Ida.create: m must be in [1, 255]";
  let dispersal = Matrix.systematic ~rows:255 ~cols:m in
  {
    m;
    dispersal;
    cache = Atomic.make (make_cache 256);
    stamp = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let m t = t.m

let piece_size t ~file_size =
  if file_size < 0 then invalid_arg "Ida.piece_size: negative size";
  (file_size + t.m - 1) / t.m

(* Below this much total encode work (output bytes times coefficients per
   byte), fan-out overhead beats the parallel win; stay sequential. *)
let parallel_cutoff = 1 lsl 16

(* Output columns per task. Small enough that the block's source and
   destination stripes sit in cache, and that tasks per call (rows *
   blocks) comfortably exceed any pool width; large enough that
   task-claim overhead stays noise. A multiple of the kernel's 32-byte
   step, so only a piece's last block has a byte tail. *)
let col_block = 16384

let run_tasks pool ~work ~n f =
  match pool with
  | Some p when Pool.size p > 1 && work >= parallel_cutoff ->
      Pool.parallel_for p ~n f
  | _ ->
      for i = 0 to n - 1 do
        f i
      done

let disperse ?pool t ~n file =
  if n < t.m || n > 255 then invalid_arg "Ida.disperse: need m <= n <= 255";
  let len = Bytes.length file in
  let s = piece_size t ~file_size:len in
  (* Source block j is file bytes [j*s, (j+1)*s), zero-padded. When the
     length divides evenly the kernel reads the caller's buffer in place;
     otherwise one padded copy stands in — never a copy per block. *)
  let src =
    if t.m * s = len then file
    else begin
      let b = Bytes.make (t.m * s) '\000' in
      Bytes.blit file 0 b 0 len;
      b
    end
  in
  let srcs = Array.make t.m src and offs = Array.init t.m (fun j -> j * s) in
  let pieces = Array.init n (fun i -> { index = i; data = Bytes.create s }) in
  let coded =
    Array.init (n - t.m) (fun c ->
        Gf256.schedule (row_coeffs t.dispersal (t.m + c)))
  in
  let obs = Obs.Control.enabled () in
  if obs then begin
    Obs.Registry.incr obs_disperse_calls;
    Obs.Registry.add obs_disperse_bytes (n * s)
  end;
  (* 2-D decomposition: row x column block. The systematic prefix
     (rows < m) is blits; a coded row runs the kernel over its column
     block. Task count is rows * blocks — more than any pool width, so
     every domain stays busy — and distinct tasks write disjoint byte
     ranges. *)
  let blocks = (s + col_block - 1) / col_block in
  run_tasks pool ~work:(n * s * t.m) ~n:(n * blocks) (fun ti ->
      let r = ti / blocks and b = ti mod blocks in
      let pos = b * col_block in
      let blen = min col_block (s - pos) in
      let dst = pieces.(r).data in
      if r < t.m then Bytes.blit src ((r * s) + pos) dst pos blen
      else begin
        if obs then Obs.Registry.incr obs_tasks;
        Gf256.encode coded.(r - t.m) ~srcs ~offs ~pos ~dst ~dst_pos:pos
          ~len:blen
      end);
  ignore (Atomic.fetch_and_add passes n);
  pieces

let hash_key key =
  Array.fold_left
    (fun h i -> (h lxor i) * 0x01000193 land max_int)
    0x811c9dc5 key

let cache_find cache key =
  let size = Array.length cache.slots in
  let h = hash_key key land (size - 1) in
  let rec go i =
    if i >= probe_window then None
    else
      match Atomic.get (Array.unsafe_get cache.slots ((h + i) land (size - 1))) with
      | Some e when e.key = key -> Some e
      | _ -> go (i + 1)
  in
  go 0

(* Reserve one unit of capacity; [false] means the cache is full. *)
let rec cache_reserve cache =
  let l = Atomic.get cache.live in
  if l >= cache.cap then false
  else if Atomic.compare_and_set cache.live l (l + 1) then true
  else cache_reserve cache

let cache_insert cache e =
  let size = Array.length cache.slots in
  let h = hash_key e.key land (size - 1) in
  let slot i = Array.unsafe_get cache.slots ((h + i) land (size - 1)) in
  let claimed =
    cache_reserve cache
    && begin
         let rec claim i =
           if i >= probe_window then begin
             (* No empty slot in the window; hand the reservation back
                and fall through to replacement. *)
             Atomic.decr cache.live;
             false
           end
           else
             let s = slot i in
             match Atomic.get s with
             | None when Atomic.compare_and_set s None (Some e) -> true
             | _ -> claim (i + 1)
         in
         claim 0
       end
  in
  if not claimed then begin
    (* Replace the oldest entry in the window (count unchanged). If the
       window is momentarily all-empty — every slot claimed away by
       racing inserts elsewhere — skip caching; the entry still serves
       its caller. *)
    let oldest = ref None in
    for i = 0 to probe_window - 1 do
      match Atomic.get (slot i) with
      | Some old -> (
          match !oldest with
          | Some (_, st) when st <= old.stamp -> ()
          | _ -> oldest := Some (slot i, old.stamp))
      | None -> ()
    done;
    match !oldest with
    | Some (s, _) -> Atomic.set s (Some e)
    | None -> ()
  end

(* [k] if [row] is the unit vector e_k, else -1. *)
let unit_column row =
  match
    List.filter (fun c -> row.(c) <> 0) (List.init (Array.length row) Fun.id)
  with
  | [ k ] when row.(k) = 1 -> k
  | _ -> -1

let build_entry t indices =
  let sub = Matrix.select_rows t.dispersal indices in
  match Matrix.invert sub with
  | None ->
      (* Unreachable: any m distinct systematic-matrix rows are
         independent. *)
      assert false
  | Some inv ->
      let inv_rows = Array.init t.m (row_coeffs inv) in
      let verbatim = Array.map unit_column inv_rows in
      let erased =
        Array.of_list
          (List.filter (fun j -> verbatim.(j) < 0) (List.init t.m Fun.id))
      in
      {
        key = Array.copy indices;
        verbatim;
        erased;
        schedules = Array.map (fun j -> Gf256.schedule inv_rows.(j)) erased;
        stamp = Atomic.fetch_and_add t.stamp 1;
      }

let inverse_for t indices =
  let cache = Atomic.get t.cache in
  match cache_find cache indices with
  | Some e ->
      Atomic.incr t.hits;
      if Obs.Control.enabled () then Obs.Registry.incr obs_cache_hits;
      e
  | None ->
      (* Concurrent misses on one subset each compute the inverse; the
         cache keeps whichever publishes, and the duplicates only serve
         their own caller. Correctness never depends on who wins. *)
      Atomic.incr t.misses;
      if Obs.Control.enabled () then Obs.Registry.incr obs_cache_misses;
      let e = build_entry t indices in
      cache_insert cache e;
      e

let cached_inverses t =
  let cache = Atomic.get t.cache in
  Array.fold_left
    (fun acc s -> match Atomic.get s with Some _ -> acc + 1 | None -> acc)
    0 cache.slots

let cache_stats t = (Atomic.get t.hits, Atomic.get t.misses)

let set_cache_cap t cap =
  if cap < 1 then invalid_arg "Ida.set_cache_cap: cap must be >= 1";
  let old = Atomic.get t.cache in
  if cap <> old.cap then begin
    (* Swap in a fresh table carrying over the youngest entries. Inserts
       racing with the swap may land in the old table and be dropped —
       benign for a cache — and readers always see one complete table. *)
    let fresh = make_cache cap in
    let entries =
      Array.to_list old.slots
      |> List.filter_map Atomic.get
      |> List.sort (fun (a : inverse_entry) b -> compare b.stamp a.stamp)
    in
    List.iteri (fun i e -> if i < cap then cache_insert fresh e) entries;
    Atomic.set t.cache fresh
  end

let reconstruct ?pool t ~length pieces =
  if length < 0 then invalid_arg "Ida.reconstruct: negative length";
  (* Range-check every supplied index, extras included, before any is
     chosen. Then keep the first piece seen for each index
     (deterministic even when a corrupted duplicate disagrees with the
     original), in index order. *)
  List.iter
    (fun p ->
      if p.index < 0 || p.index > 254 then
        invalid_arg "Ida.reconstruct: piece index out of range")
    pieces;
  let seen = Hashtbl.create 16 in
  let uniq =
    List.filter
      (fun p ->
        if Hashtbl.mem seen p.index then false
        else begin
          Hashtbl.add seen p.index ();
          true
        end)
      pieces
  in
  let by_index = List.sort (fun a b -> compare a.index b.index) uniq in
  if List.length by_index < t.m then
    invalid_arg "Ida.reconstruct: fewer than m distinct pieces";
  let chosen = Array.of_list by_index in
  let chosen = Array.sub chosen 0 t.m in
  let s = Bytes.length chosen.(0).data in
  Array.iter
    (fun p ->
      if Bytes.length p.data <> s then
        invalid_arg "Ida.reconstruct: piece sizes disagree")
    chosen;
  if length > s * t.m then
    invalid_arg "Ida.reconstruct: length exceeds encoded data";
  let entry = inverse_for t (Array.map (fun p -> p.index) chosen) in
  let obs = Obs.Control.enabled () in
  if obs then begin
    Obs.Registry.incr obs_reconstruct_calls;
    Obs.Registry.add obs_reconstruct_bytes (t.m * s)
  end;
  (* Source block j is chosen piece k verbatim when verbatim.(j) = k,
     and is copied into the result; every other block is rebuilt from
     the chosen pieces in place, straight into the result. Only the
     bytes below [length] are written. *)
  let out = Bytes.create length in
  Array.iteri
    (fun j k ->
      let blen = min s (length - (j * s)) in
      if k >= 0 && blen > 0 then Bytes.blit chosen.(k).data 0 out (j * s) blen)
    entry.verbatim;
  let erased = Array.length entry.erased in
  if erased > 0 then begin
    (* One kernel task per erased row x column block, decomposed like
       disperse. *)
    let srcs = Array.map (fun p -> p.data) chosen in
    let offs = Array.make t.m 0 in
    let blocks = (s + col_block - 1) / col_block in
    run_tasks pool ~work:(erased * s * t.m) ~n:(erased * blocks) (fun ti ->
        let e = ti / blocks and b = ti mod blocks in
        let pos = b * col_block in
        let dst_pos = (entry.erased.(e) * s) + pos in
        let len = min (min col_block (s - pos)) (length - dst_pos) in
        if len > 0 then begin
          if obs then Obs.Registry.incr obs_tasks;
          Gf256.encode entry.schedules.(e) ~srcs ~offs ~pos ~dst:out ~dst_pos
            ~len
        end)
  end;
  ignore (Atomic.fetch_and_add passes t.m);
  out

let overhead ~m ~n =
  if m <= 0 then invalid_arg "Ida.overhead: m must be positive";
  float_of_int n /. float_of_int m
