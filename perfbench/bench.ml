(* What a workload offers the runner. *)

exception Gate of string
(** A correctness gate failed; the run exits non-zero. *)

let gate cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Gate msg)) fmt

type pass = {
  det : (string * float) list;
      (** slot-domain outputs: two passes over one seed agree exactly *)
  attempted : int;  (** requests (or clients) served *)
  failed : int;  (** requests whose result was wrong *)
  wall_s : float;
  timings : Timing.metric list;  (** this pass's end-to-end timings *)
  counts : (string * float) list;  (** layer work counts *)
}

type t = {
  setup : Spans.t -> unit;
      (** spec text to ready-to-serve; replaces the previous set-up *)
  probe : Spans.t -> unit;
      (** traced run only: single-layer probes recorded as spans *)
  pass : Spans.t -> pass;
  e2e : pass list -> Timing.metric list;
      (** end-to-end timings over the measured passes *)
  layers : Spans.summary -> pass -> Timing.metric list;
      (** per-layer metrics of one traced pass *)
  check : unit -> unit;  (** workload-specific cross-checks, untimed *)
  pool_size : int;  (** domains the workload runs on *)
}

let det p name =
  match List.assoc_opt name p.det with
  | Some v -> v
  | None -> invalid_arg ("Bench.det: " ^ name)

let count p name = Option.value (List.assoc_opt name p.counts) ~default:0.0

(* Median over passes of each per-pass timing, with the samples summed. *)
let median_timings passes =
  match passes with
  | [] -> []
  | p0 :: _ ->
      List.map
        (fun (m : Timing.metric) ->
          let vs =
            List.map
              (fun p ->
                (List.find (fun (x : Timing.metric) -> x.name = m.name) p.timings)
                  .value)
              passes
          in
          let samples =
            List.fold_left
              (fun acc p ->
                acc
                + (List.find (fun (x : Timing.metric) -> x.name = m.name) p.timings)
                    .samples)
              0 passes
          in
          { m with value = Timing.median (Array.of_list vs); samples })
        p0.timings

let ratio a b = if b = 0.0 then 0.0 else a /. b
