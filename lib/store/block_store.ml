module Ida = Pindisk_ida.Ida
module Program = Pindisk.Program
module Swap = Pindisk_adapt.Swap
module Obs = Pindisk_obs

let obs_reads = Obs.Registry.counter "store.reads"
let obs_late = Obs.Registry.counter "store.read.late"
let obs_failed = Obs.Registry.counter "store.read.failed"
let obs_overflow = Obs.Registry.counter "store.read.overflow"
let obs_service = Obs.Registry.histogram "store.read.service"

type status = Pending of int | Shed_overflow | Shed_failed

type request = {
  id : int;
  file : int;
  occurrence : int;
  issued : int;
  air : int;
  status : status;
}

type stored = { m : int; pieces : Ida.piece array }

type t = {
  prog : Program.t;
  mutable digest : string option;
      (* [Swap.digest prog], taken on first use and set once: every
         checkpoint and restore needs it, and taking it prints the whole
         program. Racing first uses compute and store the same string. *)
  store : (int, stored) Hashtbl.t;
  latency : Latency.t;
  depth : int;
  mutable queue : request list; (* oldest first *)
  mutable next_read : int;
}

let create ?(depth = 8) ~latency ~program files =
  if depth < 1 then invalid_arg "Block_store.create: depth must be >= 1";
  let store = Hashtbl.create 8 in
  List.iter
    (fun (file, m, content) ->
      let capacity =
        match Program.capacity program file with
        | exception Not_found ->
            invalid_arg
              (Printf.sprintf "Block_store.create: file %d not in program" file)
        | c -> c
      in
      if m < 1 || m > capacity then
        invalid_arg "Block_store.create: need 1 <= m <= capacity";
      let ida = Ida.create ~m in
      let pieces = Ida.disperse ida ~n:capacity content in
      Hashtbl.replace store file { m; pieces })
    files;
  List.iter
    (fun f ->
      if not (Hashtbl.mem store f) then
        invalid_arg
          (Printf.sprintf "Block_store.create: no content for file %d" f))
    (Program.files program);
  {
    prog = program;
    digest = None;
    store;
    latency;
    depth;
    queue = [];
    next_read = 0;
  }

let program t = t.prog

let program_digest t =
  match t.digest with
  | Some d -> d
  | None ->
      let d = Swap.digest t.prog in
      t.digest <- Some d;
      d

let source_blocks t file =
  Option.map (fun s -> s.m) (Hashtbl.find_opt t.store file)

let stored_exn t file name =
  match Hashtbl.find_opt t.store file with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Block_store.%s: unknown file %d" name file)

(* The piece the [occurrence]-th transmission of the file carries:
   [occurrence mod capacity], the program's block-cycling discipline. *)
let piece t ~file ~occurrence =
  let s = stored_exn t file "piece" in
  s.pieces.(occurrence mod Array.length s.pieces)

(* Reads that completed strictly before [slot] and already aired (or were
   due to) are dead bookkeeping; drop them. Late reads stay until their
   completion slot passes — a busy disk is busy with them. *)
let purge t ~slot =
  t.queue <-
    List.filter
      (fun r ->
        match r.status with
        | Pending ready_at -> r.air >= slot || ready_at > slot
        | Shed_overflow | Shed_failed -> r.air >= slot)
      t.queue

let outstanding t ~slot =
  List.length
    (List.filter
       (fun r -> match r.status with Pending ready_at -> ready_at > slot | _ -> false)
       t.queue)

let submit t ~slot ~air ~file ~occurrence =
  if air < slot then invalid_arg "Block_store.submit: air slot before issue slot";
  ignore (stored_exn t file "submit");
  purge t ~slot;
  let id = t.next_read in
  t.next_read <- id + 1;
  let obs = Obs.Control.enabled () in
  if obs then Obs.Registry.incr obs_reads;
  let status =
    if outstanding t ~slot >= t.depth then begin
      if obs then Obs.Registry.incr obs_overflow;
      Shed_overflow
    end
    else
      match Latency.draw t.latency ~read_id:id ~slot with
      | Latency.Failed ->
          if obs then Obs.Registry.incr obs_failed;
          Shed_failed
      | Latency.Ready_in d ->
          if obs then Obs.Histogram.observe obs_service d;
          Pending (slot + d)
  in
  t.queue <- t.queue @ [ { id; file; occurrence; issued = slot; air; status } ]

let take t ~slot =
  match List.partition (fun r -> r.air = slot) t.queue with
  | [], _ -> `Missing
  | [ r ], rest -> (
      match r.status with
      | Shed_overflow ->
          t.queue <- rest;
          `Overflow
      | Shed_failed ->
          t.queue <- rest;
          `Failed
      | Pending ready_at ->
          if ready_at <= slot then begin
            t.queue <- rest;
            `Ready (piece t ~file:r.file ~occurrence:r.occurrence)
          end
          else begin
            (* Late: the read keeps cooking (and occupying the queue)
               until [ready_at]; [purge] reaps it then. *)
            if Obs.Control.enabled () then Obs.Registry.incr obs_late;
            `Late ready_at
          end)
  | _ :: _ :: _, _ ->
      invalid_arg "Block_store.take: two reads submitted for one air slot"

let queue t = t.queue
let next_read t = t.next_read

let restore t ~next_read queue =
  t.next_read <- next_read;
  t.queue <- queue
