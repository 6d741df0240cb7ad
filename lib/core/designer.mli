(** The end-to-end design assistant: from physical requirements to a
    provisioned broadcast disk, in one call.

    Input: the channel's {e byte} rate and, per file, the payload size in
    bytes, the latency budget in seconds, and the block-loss count to
    survive per retrieval. Output: a complete plan — the chosen block
    size (largest feasible, per Section 5), the bandwidth in blocks/sec,
    the broadcast program, and a per-file report of the guarantees the
    program actually delivers (windows, spacing, per-fault worst cases).

    This is the API a deployment would call; everything else in the
    library is reachable from the plan for finer control. *)

type requirement = {
  id : int;
  name : string;
  bytes : int;
  latency_s : int;
  tolerance : int;
}

val requirement :
  ?name:string -> ?tolerance:int -> id:int -> bytes:int -> latency_s:int ->
  unit -> requirement

type file_plan = {
  spec : File_spec.t;  (** the derived broadcast file *)
  window : int;  (** its pinwheel window [B·T], in slots *)
  slots_per_period : int;
  delta : int;  (** worst spacing between its consecutive blocks *)
}

type t = {
  block_size : int;  (** bytes per block *)
  bandwidth : int;  (** blocks (slots) per second the channel carries *)
  program : Program.t;
  files : file_plan list;
  utilization : Pindisk_util.Q.t;  (** busy fraction of the channel *)
}

val plan : byte_rate:int -> requirement list -> (t, string) result
(** [plan ~byte_rate reqs] chooses the largest feasible block size among
    the powers of two up to [byte_rate], derives each file's block
    count and capacity, and builds the program with
    [Shard.design ~channels:1]; a candidate whose demand exceeds its
    slot rate is rejected before any design. [Error] explains why no
    candidate worked: the smallest block size that fit IDA's 255 pieces
    but did not schedule, or, when none fit, the requirement past the
    cap at 1-byte blocks. *)

val pp : Format.formatter -> t -> unit
(** A human-readable deployment report. *)
