(** Client request workloads for broadcast-disk simulations.

    Models the paper's client population: thousands of independent mobile
    clients issuing data retrievals against the broadcast. Requests arrive
    as a Poisson process over the whole population, pick a file by a Zipf
    popularity law, and carry a firm deadline. Traces are deterministic in
    the seed, so competing programs can be measured on the {e identical}
    request sequence. *)

type request = {
  issued : int;  (** the slot the client tunes in *)
  file : int;
  needed : int;  (** distinct blocks to collect (IDA's [m]) *)
  deadline : int;  (** slots allowed, relative to [issued] *)
}

val generate :
  program:Pindisk.Program.t -> rate:float -> theta:float ->
  needed_of:(int -> int) -> deadline_of:(int -> int) -> horizon:int ->
  seed:int -> request list
(** [generate ~program ~rate ~theta ~needed_of ~deadline_of ~horizon ~seed]
    draws requests over [horizon] slots: inter-arrival gaps are
    exponential with mean [1/rate] (so [rate] is expected requests per
    slot across the population); files are drawn Zipf([theta]) over the
    program's files ordered by id (id order = popularity order). Sorted by
    issue slot. Raises [Invalid_argument] for [rate <= 0], a rate that
    is not finite, [theta < 0] or [horizon < 1]; NaN fails every range
    check. *)

(** How a YCSB-style population spreads its attention over files (id
    order = popularity order). *)
type popularity =
  | Zipfian of { theta : float }  (** classic skew, as {!generate} *)
  | Hotspot of { hot_fraction : float; hot_weight : float }
      (** the first [ceil (hot_fraction · n)] files uniformly share
          [hot_weight] of the requests; the rest share the remainder *)
  | Shifting of { theta : float; every : int }
      (** Zipf([theta]) whose ranking rotates one position every [every]
          slots — yesterday's hot file cools off *)

(** How the aggregate arrival rate moves over time. *)
type arrivals =
  | Steady  (** constant [rate], as {!generate} *)
  | Diurnal of { period : int; trough : float }
      (** sinusoidal wave with the given slot period; the quietest slot
          runs at [trough · rate], the busiest at [rate] *)
  | Flash of { at : int; magnitude : float; width : int }
      (** flash crowd: a triangular spike peaking at [magnitude · rate]
          in slot [at], ramping linearly over [width] slots each side *)

val ycsb :
  program:Pindisk.Program.t -> rate:float -> popularity:popularity ->
  arrivals:arrivals -> needed_of:(int -> int) -> deadline_of:(int -> int) ->
  horizon:int -> seed:int -> request list
(** YCSB-flavoured workload: a non-homogeneous Poisson arrival process
    (by Lewis thinning against the peak rate) paired with a possibly
    time-varying popularity law. [ycsb ~popularity:(Zipfian _)
    ~arrivals:Steady] is distributionally the same family as
    {!generate}, though drawn from a different stream. Deterministic in
    [seed]: the same arguments produce the identical trace. Sorted by
    issue slot. Raises [Invalid_argument] for [rate <= 0], a rate that
    is not finite, [horizon < 1], an empty program, or out-of-range
    shape parameters ([theta < 0]; [hot_fraction] outside (0, 1];
    [hot_weight] outside [0, 1]; [every]/[period]/[width] [< 1];
    [magnitude < 1] or not finite; a negative flash slot); NaN fails
    every range check. *)
