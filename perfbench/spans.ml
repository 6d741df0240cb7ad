(* In-memory spans for the traced run, recorded around the benchmark's
   calls into each layer: name, start, end, parent and request id. A
   recorder created with [off] records nothing and costs one branch per
   call, so the untraced run uses the same code. Spans are written out
   as Chrome trace-event JSON when the run ends. *)

let names : (string, int) Hashtbl.t = Hashtbl.create 32
let by_id = ref [||]

(* Span names are interned once, at module initialisation. *)
let intern s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Array.length !by_id in
      Hashtbl.add names s i;
      by_id := Array.append !by_id [| s |];
      i

let name_of i = !by_id.(i)

(* The layer a span belongs to is its name up to the first dot. *)
let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

type t = {
  on : bool;
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable cur : int;
}

let make on cap =
  {
    on;
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    req = Array.make cap 0;
    cur = -1;
  }

let off = make false 0
let create () = make true (1 lsl 18)
let enabled t = t.on

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  t.parent <- ext t.parent;
  t.req <- ext t.req

(* The clock is read last on entry and first on exit, so the
   recorder's own bookkeeping falls outside the span. *)
let enter ?(req = -1) t name =
  if not t.on then -1
  else begin
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.name.(i) <- name;
    t.parent.(i) <- t.cur;
    t.req.(i) <- req;
    t.n <- i + 1;
    t.cur <- i;
    t.start.(i) <- Timing.now_ns ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.stop.(i) <- Timing.now_ns ();
    t.cur <- t.parent.(i)
  end

(* Close span [i] and open [name] beside it at one clock read, so two
   back-to-back layer calls leave no gap between their spans. *)
let switch ?(req = -1) t i name =
  if i < 0 then -1
  else begin
    let now = Timing.now_ns () in
    t.stop.(i) <- now;
    t.cur <- t.parent.(i);
    if t.n = Array.length t.name then grow t;
    let j = t.n in
    t.name.(j) <- name;
    t.parent.(j) <- t.cur;
    t.req.(j) <- req;
    t.n <- j + 1;
    t.cur <- j;
    t.start.(j) <- now;
    j
  end

let span ?req t name f =
  let i = enter ?req t name in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let dur t i = t.stop.(i) - t.start.(i)

(* A span's self time is its duration minus its children's. *)
let self_times t =
  let self = Array.init t.n (dur t) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - dur t i
  done;
  self

type summary = {
  wall_ns : int;  (** total duration of the top-level spans *)
  by_name : (string * (int * int * int)) list;
      (** name -> (count, total ns, self ns) *)
  by_layer : (string * int) list;  (** layer -> self ns *)
}

let summarize t =
  let self = self_times t in
  let tbl = Hashtbl.create 32 in
  let wall = ref 0 in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 then wall := !wall + dur t i;
    let c, d, s =
      Option.value (Hashtbl.find_opt tbl t.name.(i)) ~default:(0, 0, 0)
    in
    Hashtbl.replace tbl t.name.(i) (c + 1, d + dur t i, s + self.(i))
  done;
  let by_name =
    Hashtbl.fold (fun k v acc -> (name_of k, v) :: acc) tbl []
    |> List.sort compare
  in
  let layers = Hashtbl.create 8 in
  List.iter
    (fun (n, (_, _, s)) ->
      let l = layer_of n in
      Hashtbl.replace layers l
        (s + Option.value (Hashtbl.find_opt layers l) ~default:0))
    by_name;
  let by_layer =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers [] |> List.sort compare
  in
  { wall_ns = !wall; by_name; by_layer }

let count s name =
  match List.assoc_opt name s.by_name with Some (c, _, _) -> c | None -> 0

let total_s s name =
  match List.assoc_opt name s.by_name with
  | Some (_, d, _) -> float_of_int d *. 1e-9
  | None -> 0.0

let self_s s name =
  match List.assoc_opt name s.by_name with
  | Some (_, _, x) -> float_of_int x *. 1e-9
  | None -> 0.0

(* Mean self time per span of a name, in ns; 0 when it never ran. *)
let mean_self_ns s name =
  match List.assoc_opt name s.by_name with
  | Some (c, _, x) when c > 0 -> float_of_int x /. float_of_int c
  | _ -> 0.0

(* The benchmark's own glue is the [bench] layer; everything else is a
   layer of the program. *)
let coverage s =
  let layers =
    List.fold_left
      (fun acc (l, x) -> if l = "bench" then acc else acc + x)
      0 s.by_layer
  in
  if s.wall_ns = 0 then 0.0 else float_of_int layers /. float_of_int s.wall_ns

let chrome_json ~stamp t =
  let b = Buffer.create (t.n * 96 + 256) in
  let t0 = if t.n = 0 then 0 else t.start.(0) in
  let us ns = float_of_int ns /. 1000.0 in
  Buffer.add_string b "{\"displayTimeUnit\": \"ns\", \"otherData\": ";
  Buffer.add_string b (Timing.stamp_json stamp);
  Buffer.add_string b ", \"traceEvents\": [\n";
  for i = 0 to t.n - 1 do
    let name = name_of t.name.(i) in
    Printf.bprintf b
      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \
       \"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"id\": %d, \
       \"parent\": %d%s}}%s\n"
      name (layer_of name)
      (us (t.start.(i) - t0))
      (us (dur t i))
      i t.parent.(i)
      (if t.req.(i) >= 0 then Printf.sprintf ", \"req\": %d" t.req.(i) else "")
      (if i = t.n - 1 then "" else ",")
  done;
  Buffer.add_string b "]}\n";
  Buffer.contents b
