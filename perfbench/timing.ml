(* The benchmark's one timing and artifact helper: a monotonic clock,
   order statistics over samples, the machine stamp every result carries,
   and the writers for the result line and the per-run artifact. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Seconds spent in [f], and its result. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (float_of_int (now_ns () - t0) *. 1e-9, r)

(* The [k]-th smallest element (0-based), by Hoare selection in place:
   O(n), where sorting a large sample array would cost more than the
   work it measures. Afterwards every element past [k] is >= it. *)
let select (a : float array) k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j
    else if k >= !i then lo := !i
    else begin
      lo := k;
      hi := k
    end
  done;
  a.(k)

(* Linear interpolation between order statistics. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Timing.percentile: no samples";
  let s = Array.copy a in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = truncate rank in
  let v = select s lo in
  if lo + 1 >= n then v
  else begin
    let next = ref s.(lo + 1) in
    for i = lo + 2 to n - 1 do
      if s.(i) < !next then next := s.(i)
    done;
    v +. ((rank -. float_of_int lo) *. (!next -. v))
  end

let median a = percentile a 50.0

(* ---------------- contention reference ---------------- *)

(* The memory system is shared with other tenants of the machine, and
   their load comes in episodes of seconds that slow memory-bound code
   by up to 2x while leaving arithmetic alone; no window of a few
   seconds reliably contains a quiet one. A fixed memory-bound kernel
   (strided reads over 8 MiB, off the OCaml heap) timed right before
   each measurement reads the contention at that moment, and the result
   line rescales every timing to the kernel's nominal duration: times
   by [reference_nominal_s / reference], rates by its inverse. *)
let reference_cells = 1 lsl 20

let reference_array =
  lazy
    (Bigarray.Array1.init Bigarray.int Bigarray.c_layout reference_cells Fun.id)

let reference () =
  let a = Lazy.force reference_array in
  let mask = reference_cells - 1 in
  let t0 = now_ns () in
  let s = ref 0 in
  for k = 0 to 3 do
    for i = 0 to mask do
      s := !s + Bigarray.Array1.unsafe_get a (((i * 4099) + k) land mask)
    done
  done;
  ignore (Sys.opaque_identity !s);
  float_of_int (now_ns () - t0) *. 1e-9

(* The kernel's uncontended duration on a 2-vCPU x86-64 VM at 2.0 GHz. *)
let reference_nominal_s = 0.025

(* One reported number: [samples] is how many observations it summarises. *)
type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

(* Rescale a measured timing by [factor] = nominal / reference. *)
let adjust factor m =
  if String.ends_with ~suffix:"/s" m.unit_ then { m with value = m.value /. factor }
  else if List.mem m.unit_ [ "s"; "ms"; "us"; "ns" ] then
    { m with value = m.value *. factor }
  else m

(* ---------------- machine stamp ---------------- *)

(* [nproc] honours CPU affinity, which [Domain.recommended_domain_count]
   does not; both are recorded because they disagree in containers. *)
let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      let status = Unix.close_process_in ic in
      (match (status, line) with
      | Unix.WEXITED 0, Some l -> int_of_string_opt (String.trim l)
      | _ -> None)

type stamp = {
  nproc : int option;
  recommended_domains : int;
  ocaml : string;
  pool_size : int;
  parallel_capable : bool;
}

(* Scaling numbers mean something only when the pool has two domains
   and the machine has two cores to run them on. *)
let stamp ~pool_size =
  let nproc = nproc () in
  let recommended_domains = Domain.recommended_domain_count () in
  {
    nproc;
    recommended_domains;
    ocaml = Sys.ocaml_version;
    pool_size;
    parallel_capable =
      pool_size >= 2
      && Option.value nproc ~default:recommended_domains >= pool_size;
  }

(* Pool domains never exceed the cores the process may run on. *)
let pool_domains ~want =
  let cores =
    min (Domain.recommended_domain_count ())
      (Option.value (nproc ()) ~default:max_int)
  in
  max 1 (min want cores)

(* ---------------- output ---------------- *)

(* Shortest round-trip decimal, so no digit is dropped. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let stamp_json s =
  Printf.sprintf
    "{\"nproc\": %s, \"recommended_domain_count\": %d, \"ocaml\": %s, \
     \"pool_size\": %d, \"parallel_capable\": %b}"
    (match s.nproc with Some n -> string_of_int n | None -> "null")
    s.recommended_domains (json_string s.ocaml) s.pool_size s.parallel_capable

let pp_stamp ppf s =
  Format.fprintf ppf
    "machine: nproc=%s recommended_domain_count=%d ocaml=%s pool_size=%d \
     parallel_capable=%b"
    (match s.nproc with Some n -> string_of_int n | None -> "unknown")
    s.recommended_domains s.ocaml s.pool_size s.parallel_capable

let pp_metric ppf m =
  Format.fprintf ppf "  %-28s %18.6f %-8s n=%d" m.name m.value m.unit_ m.samples

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
           (json_float m.value) (json_string m.unit_))
       ms)

(* The result line the harness parses: exactly these four keys. *)
let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (metrics_json ms)

let out_dir = Filename.concat "perfbench" "_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let write_file path contents =
  ensure_out_dir ();
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents);
  Sys.rename tmp path

(* The per-run artifact: every metric with its unit and sample count,
   stamped with the machine that produced it. *)
let artifact ~workload ~seed ~trace ~stamp ms =
  let rows =
    List.map
      (fun m ->
        Printf.sprintf "    {\"name\": %s, \"value\": %s, \"unit\": %s, \"samples\": %d}"
          (json_string m.name) (json_float m.value) (json_string m.unit_)
          m.samples)
      ms
  in
  Printf.sprintf
    "{\n  \"workload\": %s,\n  \"seed\": %d,\n  \"trace\": %b,\n  \"machine\": %s,\n  \"metrics\": [\n%s\n  ]\n}\n"
    (json_string workload) seed trace (stamp_json stamp)
    (String.concat ",\n" rows)
