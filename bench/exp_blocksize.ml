(* E8 -- the block-size tradeoff (Section 5, the paper's open issue).

   A file of fixed byte size dispersed at block size b has m = size/b
   source blocks: smaller blocks mean finer dispersal (better bandwidth
   granularity, more fault coverage per redundant block) but O(m^2)
   dispersal/reconstruction cost. The paper's SETH VLSI chip did ~1 MB/s;
   this table measures our software IDA across block sizes. *)

module Ida = Pindisk_ida.Ida

let time_it f =
  let t0 = Sys.time () in
  let reps = ref 0 in
  while Sys.time () -. t0 < 0.2 do
    f ();
    incr reps
  done;
  (Sys.time () -. t0) /. float_of_int !reps

let run () =
  Format.printf "== E8 / block-size tradeoff (64 KiB file, r = 2 redundancy) ==@.";
  Format.printf "  %-10s %6s %10s %14s %16s@." "block" "m" "overhead"
    "disperse MB/s" "reconstruct MB/s";
  let size = 64 * 1024 in
  let file = Bytes.init size (fun i -> Char.chr (i land 0xff)) in
  List.iter
    (fun block ->
      let m = size / block in
      if m >= 1 && m <= 253 then begin
        let n = m + 2 in
        let ida = Ida.create ~m in
        let t_disp = time_it (fun () -> ignore (Ida.disperse ida ~n file)) in
        let pieces = Array.to_list (Ida.disperse ida ~n file) in
        (* Reconstruct from a subset that excludes two pieces, forcing a
           real inverse. *)
        let subset = List.filteri (fun i _ -> i >= 2) pieces in
        let t_rec =
          time_it (fun () -> ignore (Ida.reconstruct ida ~length:size subset))
        in
        let mbps t = float_of_int size /. t /. 1.0e6 in
        Format.printf "  %-10d %6d %9.3fx %14.1f %16.1f@." block m
          (float_of_int n /. float_of_int m)
          (mbps t_disp) (mbps t_rec)
      end)
    [ 256; 512; 1024; 2048; 4096; 8192; 16384 ];
  Format.printf
    "  (larger blocks: quadratically cheaper coding but coarser bandwidth@.\
    \   allocation and weaker per-block fault coverage; the paper's SETH \
     chip@.   reference point is ~1 MB/s.)@.@.";

  (* Section 5's optimization problems, automated. *)
  let module Bs = Pindisk.Block_size in
  let module Designer = Pindisk.Designer in
  let files =
    [
      Bs.file ~id:0 ~bytes:2048 ~latency:2 ~tolerance:2 ();
      Bs.file ~id:1 ~bytes:8192 ~latency:10 ~tolerance:1 ();
      Bs.file ~id:2 ~bytes:32768 ~latency:60 ~tolerance:1 ();
    ]
  in
  let reqs =
    List.map
      (fun (f : Bs.file) ->
        Designer.requirement ~id:f.Bs.id ~bytes:f.Bs.bytes ~latency_s:f.Bs.latency
          ~tolerance:f.Bs.tolerance ())
      files
  in
  Format.printf "  Largest feasible system-wide block size (paper Sec. 5):@.";
  Format.printf "  %-12s %10s %22s@." "byte rate" "largest b" "per-file k (b_i = k*256)";
  List.iter
    (fun byte_rate ->
      let uniform =
        match Designer.plan ~byte_rate reqs with
        | Ok d -> string_of_int d.Designer.block_size
        | Error _ -> "-"
      in
      let multipliers =
        match Bs.per_file_multipliers ~byte_rate ~base:256 files with
        | Some (ks, _) ->
            String.concat " "
              (List.map (fun (id, k) -> Printf.sprintf "F%d:%d" id k) ks)
        | None -> "-"
      in
      Format.printf "  %-12d %10s %22s@." byte_rate uniform multipliers)
    [ 2048; 4096; 8192; 16384 ];
  Format.printf
    "  (the greedy multiplier search coarsens the biggest files first, \
     trading@.   their coding cost against the bandwidth slack the \
     scheduler can absorb.)@.@."
