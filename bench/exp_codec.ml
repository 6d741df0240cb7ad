(* E20 -- codec engine throughput: the table-free row kernel and the
   domain-parallel IDA engine against two fixed comparators: the seed
   implementation (log/exp lookups with a zero-branch per byte, one axpy
   sweep per matrix coefficient) and a frozen copy of the v1 table
   kernel (one wide-table [encode_row_strided] sweep per output row over
   a non-systematic Vandermonde matrix).

   A fixed-work harness repeats each operation until a time budget is
   spent and reports MB/s over the file bytes processed; results land in
   BENCH_codec.json (schema below) so the speedup trajectory is recorded
   alongside the paper tables. Bechamel micro-benchmarks of the raw
   kernels run at the end.

   Quick mode (PINDISK_CODEC_QUICK=1, used by CI and `make bench-codec`)
   trims the grid to the headline configurations. Both grids add the
   shape a broadcast client mostly decodes: m = 4, n = 5, 128 KiB, one
   erased row over 32 KiB pieces. *)

module Gf256 = Pindisk_gf256.Gf256
module Matrix = Pindisk_gf256.Matrix
module Ida = Pindisk_ida.Ida
module Pool = Pindisk_util.Pool

(* ---------------- baseline: the seed codec, kept verbatim ---------------- *)

(* Rebuilt from the public exp/log so the baseline shares no bulk kernel
   with the code under test. *)
let exp_table =
  Array.init 510 (fun k -> Gf256.exp (k mod 255))

let log_table =
  Array.init 256 (fun x -> if x = 0 then 0 else Gf256.log x)

let baseline_axpy ~acc ~coeff ~src =
  let coeff = coeff land 0xff in
  if coeff <> 0 then begin
    let lc = log_table.(coeff) in
    for i = 0 to Bytes.length acc - 1 do
      let s = Char.code (Bytes.unsafe_get src i) in
      if s <> 0 then
        Bytes.unsafe_set acc i
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get acc i)
             lxor exp_table.(lc + log_table.(s))))
    done
  end

let source_blocks ~m ~s file =
  Array.init m (fun j ->
      let b = Bytes.make s '\000' in
      let off = j * s in
      let len = min s (Bytes.length file - off) in
      if len > 0 then Bytes.blit file off b 0 len;
      b)

let baseline_disperse ~matrix ~m ~n file =
  let s = (Bytes.length file + m - 1) / m in
  let blocks = source_blocks ~m ~s file in
  Array.init n (fun i ->
      let data = Bytes.make s '\000' in
      for j = 0 to m - 1 do
        baseline_axpy ~acc:data ~coeff:(Matrix.get matrix i j) ~src:blocks.(j)
      done;
      (i, data))

let baseline_reconstruct ~matrix ~m ~length pieces =
  let indices = Array.map fst pieces in
  let inv =
    match Matrix.invert (Matrix.select_rows matrix indices) with
    | Some inv -> inv
    | None -> assert false
  in
  let s = Bytes.length (snd pieces.(0)) in
  let out = Bytes.create length in
  let block = Bytes.create s in
  for j = 0 to m - 1 do
    Bytes.fill block 0 s '\000';
    for k = 0 to m - 1 do
      baseline_axpy ~acc:block ~coeff:(Matrix.get inv j k) ~src:(snd pieces.(k))
    done;
    let off = j * s in
    let len = min s (length - off) in
    if len > 0 then Bytes.blit block 0 out off len
  done;
  out

(* ---------------- frozen v1 comparator: per-row wide-table kernel -------- *)

(* The pre-engine disperse path, kept as a fixed comparator: one
   wide-table [encode_row_strided] sweep per output row of a
   non-systematic Vandermonde matrix (every row pays the full GF(256)
   sweep -- no systematic blits, no row kernel, no parallel tasks). The
   engine's speedup over THIS is the gated number, so it must never be
   "improved". *)
let v1_row_coeffs ~matrix ~m ~n =
  Array.init n (fun i -> Array.init m (fun j -> Matrix.get matrix i j))

let v1_disperse ~rows ~m ~n file =
  let len = Bytes.length file in
  let s = (len + m - 1) / m in
  let src =
    if m * s = len then file
    else begin
      let b = Bytes.make (m * s) '\000' in
      Bytes.blit file 0 b 0 len;
      b
    end
  in
  Array.init n (fun i ->
      let data = Bytes.create s in
      Gf256.encode_row_strided ~dst:data ~coeffs:rows.(i) ~src ~stride:s;
      (i, data))

(* ---------------- fixed-work harness ---------------- *)

let time_budget = ref 0.25
let min_reps = 3

(* Repeat [f] until the budget is spent; MB/s over [bytes] per call. *)
let throughput ~bytes f =
  ignore (f ());
  (* warm-up + correctness-path *)
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !reps < min_reps || !elapsed < !time_budget do
    ignore (Sys.opaque_identity (f ()));
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  float_of_int (!reps * bytes) /. !elapsed /. 1e6

type cell = {
  op : string;
  impl : string;
  m : int;
  n : int;
  size : int;
  domains : int;
  mb_per_s : float;
}

(* One grid point, with everything the measurement closures need
   prebuilt (matrices, contexts, a coded-heavy subset for
   reconstruction). *)
type config = {
  cm : int;
  cn : int;
  csize : int;
  cmatrix : Matrix.t;
  cida : Ida.t;
  cv1_rows : Gf256.t array array;
  cfile : Bytes.t;
  ckeep_list : Ida.piece list;
  ckeep_pairs : (int * Bytes.t) array;
}

let iter_grid ~quick f =
  let ms = if quick then [ 8 ] else [ 4; 8; 16 ] in
  let rs = if quick then [ 0; 2 ] else [ 0; 2; 4 ] in
  let sizes = if quick then [ 4096; 65536 ] else [ 4096; 65536; 1048576 ] in
  let grid =
    List.map (fun m -> (m, List.map (fun r -> (r, sizes)) rs)) ms
    @ [ (4, [ (1, [ 131072 ]) ]) ]
  in
  List.iter
    (fun (m, rows) ->
      let matrix = Matrix.vandermonde ~rows:255 ~cols:m in
      let ida = Ida.create ~m in
      List.iter
        (fun (r, sizes) ->
          let n = m + r in
          let v1_rows = v1_row_coeffs ~matrix ~m ~n in
          List.iter
            (fun size ->
              let file = Bytes.init size (fun i -> Char.chr ((i * 131) land 0xff)) in
              let dispersed = Ida.disperse ida ~n file in
              (* Coded-heavy subset so reconstruction pays the kernel, not
                 just systematic blits. *)
              let keep =
                Array.init m (fun j -> dispersed.((j + (n - m)) mod n))
              in
              f
                {
                  cm = m;
                  cn = n;
                  csize = size;
                  cmatrix = matrix;
                  cida = ida;
                  cv1_rows = v1_rows;
                  cfile = file;
                  ckeep_list = Array.to_list keep;
                  ckeep_pairs =
                    Array.map (fun p -> (p.Ida.index, p.Ida.data)) keep;
                })
            sizes)
        rows)
    grid

(* Two passes: every 1-domain cell is measured before any pool domain is
   spawned. Parked domains are not free — each minor collection is a
   stop-the-world handshake across all domains, which on a small runner
   taxes allocation-heavy single-domain loops by large factors — so the
   sequential numbers must be taken in a single-domain process state. *)
let run_grid ~quick =
  let cells = ref [] in
  let record c = cells := c :: !cells in
  iter_grid ~quick (fun c ->
      let mk op impl domains mb =
        record
          { op; impl; m = c.cm; n = c.cn; size = c.csize; domains; mb_per_s = mb }
      in
      mk "disperse" "baseline" 1
        (throughput ~bytes:c.csize (fun () ->
             baseline_disperse ~matrix:c.cmatrix ~m:c.cm ~n:c.cn c.cfile));
      mk "disperse" "table" 1
        (throughput ~bytes:c.csize (fun () ->
             v1_disperse ~rows:c.cv1_rows ~m:c.cm ~n:c.cn c.cfile));
      mk "disperse" "engine" 1
        (throughput ~bytes:c.csize (fun () -> Ida.disperse c.cida ~n:c.cn c.cfile));
      mk "reconstruct" "baseline" 1
        (throughput ~bytes:c.csize (fun () ->
             baseline_reconstruct ~matrix:c.cmatrix ~m:c.cm ~length:c.csize
               c.ckeep_pairs));
      mk "reconstruct" "engine" 1
        (throughput ~bytes:c.csize (fun () ->
             Ida.reconstruct c.cida ~length:c.csize c.ckeep_list)));
  let pool = Pool.create ~domains:4 () in
  let pool_domains = Pool.size pool in
  iter_grid ~quick (fun c ->
      let mk op impl domains mb =
        record
          { op; impl; m = c.cm; n = c.cn; size = c.csize; domains; mb_per_s = mb }
      in
      mk "disperse" "engine" pool_domains
        (throughput ~bytes:c.csize (fun () ->
             Ida.disperse ~pool c.cida ~n:c.cn c.cfile));
      mk "reconstruct" "engine" pool_domains
        (throughput ~bytes:c.csize (fun () ->
             Ida.reconstruct ~pool c.cida ~length:c.csize c.ckeep_list)));
  Pool.shutdown pool;
  (pool_domains, List.rev !cells)

(* ---------------- JSON output ---------------- *)

let find cells ~op ~impl ~m ~n ~size ~domains =
  List.find_opt
    (fun c ->
      c.op = op && c.impl = impl && c.m = m && c.n = n && c.size = size
      && c.domains = domains)
    cells

type headline = {
  table_over_baseline : float;
  engine_over_baseline : float;
  engine_over_table : float;
  sys_engine_over_table : float; (* r=0: the systematic-prefix fast path *)
  scaling : float; (* engine pool-domains over engine 1-domain *)
  recon_engine_over_baseline : float;
      (* reconstruct at r=2 from pieces 2..9: two erased rows *)
  recon_m4_engine_over_baseline : float;
      (* reconstruct m=4, n=5, 128 KiB from pieces 1..4: one erased row *)
}

let headline cells ~pool_domains =
  (* The acceptance configuration: m=8, 64 KiB, at r=2 (the
     fault-tolerant shape, where the engine still pays the SWAR sweep
     for the coded rows) and at r=0 (pure systematic prefix: dispersal
     degenerates to blits). *)
  let pick ?(op = "disperse") ?(n = 10) impl domains =
    find cells ~op ~impl ~m:8 ~n ~size:65536 ~domains
  in
  match
    ( pick "baseline" 1,
      pick "table" 1,
      pick "engine" 1,
      pick "engine" pool_domains,
      pick ~n:8 "table" 1,
      pick ~n:8 "engine" 1,
      pick ~op:"reconstruct" "baseline" 1,
      pick ~op:"reconstruct" "engine" 1,
      find cells ~op:"reconstruct" ~impl:"baseline" ~m:4 ~n:5 ~size:131072
        ~domains:1,
      find cells ~op:"reconstruct" ~impl:"engine" ~m:4 ~n:5 ~size:131072
        ~domains:1 )
  with
  | ( Some b, Some t1, Some e1, Some en, Some st, Some se, Some rb, Some re,
      Some rb4, Some re4 ) ->
      Some
        {
          table_over_baseline = t1.mb_per_s /. b.mb_per_s;
          engine_over_baseline = e1.mb_per_s /. b.mb_per_s;
          engine_over_table = e1.mb_per_s /. t1.mb_per_s;
          sys_engine_over_table = se.mb_per_s /. st.mb_per_s;
          scaling = en.mb_per_s /. e1.mb_per_s;
          recon_engine_over_baseline = re.mb_per_s /. rb.mb_per_s;
          recon_m4_engine_over_baseline = re4.mb_per_s /. rb4.mb_per_s;
        }
  | _ -> None

let write_json ~path ~quick ~pool_domains cells =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"codec\",\n";
  out "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  out "  \"metrics\": %b,\n" (Pindisk_obs.Control.enabled ());
  out "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"pool_domains\": %d,\n" pool_domains;
  (* The scaling gate only binds on runners that can actually run the
     pool's domains in parallel; a single-core runner measures ~1.0x by
     construction and must not fail CI for it. *)
  out "  \"parallel_capable\": %d,\n"
    (if Domain.recommended_domain_count () >= 4 then 1 else 0);
  (match headline cells ~pool_domains with
  | Some h ->
      out "  \"disperse_m8_64KiB_table_over_baseline\": %.2f,\n"
        h.table_over_baseline;
      out "  \"disperse_m8_64KiB_engine_over_baseline\": %.2f,\n"
        h.engine_over_baseline;
      out "  \"disperse_m8_64KiB_engine_over_table\": %.2f,\n"
        h.engine_over_table;
      out "  \"disperse_m8n8_64KiB_engine_over_table\": %.2f,\n"
        h.sys_engine_over_table;
      out "  \"disperse_m8_64KiB_scaling_4dom_over_1dom\": %.2f,\n" h.scaling;
      out "  \"reconstruct_m8_64KiB_engine_over_baseline\": %.2f,\n"
        h.recon_engine_over_baseline;
      out
        "  \"reconstruct_m4_128KiB_one_erased_engine_over_baseline\": %.2f,\n"
        h.recon_m4_engine_over_baseline
  | None -> ());
  out "  \"results\": [\n";
  List.iteri
    (fun i c ->
      out
        "    {\"op\": \"%s\", \"impl\": \"%s\", \"m\": %d, \"n\": %d, \
         \"size\": %d, \"domains\": %d, \"mb_per_s\": %.1f}%s\n"
        c.op c.impl c.m c.n c.size c.domains c.mb_per_s
        (if i = List.length cells - 1 then "" else ","))
    cells;
  out "  ]\n}\n";
  close_out oc

(* ---------------- bechamel micro-benchmarks of the raw kernels ---------------- *)

let micro () =
  let open Bechamel in
  let size = 65536 in
  let src = Bytes.init size (fun i -> Char.chr ((i * 7) land 0xff)) in
  let acc = Bytes.create size in
  let srcs = Array.init 8 (fun j -> Bytes.init (size / 8) (fun i -> Char.chr ((i + j) land 0xff))) in
  let coeffs = Array.init 8 (fun j -> j + 2) in
  let dst = Bytes.create (size / 8) in
  (* One coded row of m = 8 over 8 KiB pieces, from one strided buffer,
     and one of m = 4 over 32 KiB pieces. *)
  let row8 = Gf256.schedule (Array.init 8 (fun j -> ((j * 37) + 1) land 0xff)) in
  let row4 = Gf256.schedule (Array.init 4 (fun j -> ((j * 37) + 1) land 0xff)) in
  let strided k = (Array.make k src, Array.init k (fun j -> j * (size / k))) in
  let srcs8, offs8 = strided 8 and srcs4, offs4 = strided 4 in
  let dst4 = Bytes.create (size / 4) in
  let tests =
    Test.make_grouped ~name:"codec"
      [
        Test.make ~name:"axpy-seed 64KiB"
          (Staged.stage (fun () -> baseline_axpy ~acc ~coeff:0x53 ~src));
        Test.make ~name:"axpy-table 64KiB"
          (Staged.stage (fun () -> Gf256.axpy ~acc ~coeff:0x53 ~src));
        Test.make ~name:"mul_into 64KiB"
          (Staged.stage (fun () -> Gf256.mul_into ~dst:acc ~coeff:0x53 ~src));
        Test.make ~name:"encode_row m=8 8KiB"
          (Staged.stage (fun () -> Gf256.encode_row ~dst ~coeffs ~srcs));
        Test.make ~name:"encode m=8 8KiB"
          (Staged.stage (fun () ->
               Gf256.encode row8 ~srcs:srcs8 ~offs:offs8 ~pos:0 ~dst
                 ~dst_pos:0 ~len:(size / 8)));
        Test.make ~name:"encode m=4 32KiB"
          (Staged.stage (fun () ->
               Gf256.encode row4 ~srcs:srcs4 ~offs:offs4 ~pos:0 ~dst:dst4
                 ~dst_pos:0 ~len:(size / 4)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Format.printf "  %-28s %12.0f ns/run@." name est
      | _ -> Format.printf "  %-28s (no estimate)@." name)
    results

let run () =
  let quick = Sys.getenv_opt "PINDISK_CODEC_QUICK" <> None in
  if quick then time_budget := 0.3;
  Format.printf "== E20 / codec engine: row kernel + systematic prefix + domain pool ==@.";
  let pool_domains, cells = run_grid ~quick in
  Format.printf "  %-12s %-9s m=%-3s n=%-3s %-9s dom %-3s MB/s@." "op" "impl"
    "" "" "size" "";
  List.iter
    (fun c ->
      Format.printf "  %-12s %-9s m=%-3d n=%-3d %-9d dom %-3d %.1f@." c.op
        c.impl c.m c.n c.size c.domains c.mb_per_s)
    cells;
  (match headline cells ~pool_domains with
  | Some h ->
      Format.printf
        "  headline (disperse m=8 n=10 64KiB): engine/v1-table %.2fx, \
         engine/seed %.2fx, v1-table/seed %.2fx, %d-domain/1-domain %.2fx; \
         systematic n=8: engine/v1-table %.2fx; reconstruct from pieces \
         2..9: engine/seed %.2fx; m=4 n=5 128KiB one erased row: \
         engine/seed %.2fx@."
        h.engine_over_table h.engine_over_baseline h.table_over_baseline
        pool_domains h.scaling h.sys_engine_over_table
        h.recon_engine_over_baseline h.recon_m4_engine_over_baseline
  | None -> ());
  (* PINDISK_CODEC_OUT redirects the artifact so the metrics-overhead run
     (`make bench-obs`, PINDISK_METRICS=1) does not clobber the baseline
     BENCH_codec.json numbers. *)
  let path =
    Option.value
      (Sys.getenv_opt "PINDISK_CODEC_OUT")
      ~default:"BENCH_codec.json"
  in
  write_json ~path ~quick ~pool_domains cells;
  Format.printf "  wrote %s (metrics %s)@." path
    (if Pindisk_obs.Control.enabled () then "enabled" else "disabled");
  micro ();
  Format.printf "@."
