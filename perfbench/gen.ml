(* Input generators. Every workload input comes from here; the library
   only ever sees what these return. The same seed gives the same
   inputs.

   A seed is a replicate of one workload shape, not a new shape: the
   file ladder (which popularity rank gets which size, tolerance and
   latency budget) is fixed, and the seed moves file contents, request
   arrivals and draws, and every fault and read-latency stream. Under a
   Zipfian law the few hottest files decide most of the cost, so letting
   the seed pick their attributes would make two seeds measure two
   different workloads. *)

module File_spec = Pindisk.File_spec

let rng ~seed salt = Random.State.make [| seed; salt |]

(* ---------------- air-bytes: a Designer spec ---------------- *)

let air_files = 32
let air_byte_rate = 512 * 1024

(* Rank [i]: latency budget 4..64 s (dyadic), tolerance 0..3, and a size
   spread log-uniformly over 4..128 KiB by a stride that mixes sizes
   across ranks. *)
let design_text () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "pindisk-design v1\n";
  Printf.bprintf b "rate %d\n" air_byte_rate;
  for i = 0 to air_files - 1 do
    let latency = 4 lsl (i mod 5) in
    let tolerance = i mod 4 in
    let cls =
      float_of_int (i * 13 mod air_files) /. float_of_int (air_files - 1)
    in
    let bytes = int_of_float (4096.0 *. (2.0 ** (5.0 *. cls))) in
    Printf.bprintf b "require f%02d %d %d %d\n" i bytes latency tolerance
  done;
  Buffer.contents b

let contents ~seed ~id ~len =
  let st = rng ~seed (0xc0 + id) in
  Bytes.init len (fun _ -> Char.unsafe_chr (Random.State.bits st land 0xff))

(* ---------------- fleet / population: many small files ---------------- *)

(* Per-channel blocks/sec of the sharded designs. *)
let fleet_bandwidth = 32

(* Rank [i]: m 1..4, tolerance 0..2 and latency 16..128 s (windows of
   512..4096 slots at [fleet_bandwidth]) on cycles of 4, 3 and 5, so
   every combination recurs along the popularity order. *)
let fleet_specs ~files =
  List.init files (fun id ->
      File_spec.make ~id
        ~blocks:(1 + (id mod 4))
        ~tolerance:(id mod 3)
        ~latency:(16 lsl (id mod 5 mod 4))
        ())
