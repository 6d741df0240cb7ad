(** Random pinwheel-instance generation for experiments.

    Deterministic given the seed (each generator builds its own
    [Random.State.t]); nothing here touches the global RNG state. *)

val unit_system_with_density :
  seed:int -> n:int -> max_b:int -> target:float -> Task.system
(** [n] single-unit tasks whose total density approaches [target] from
    below: windows are drawn at random but rejected while the remaining
    budget is exceeded; the final system's density is the closest the draw
    got to [target] without passing it. Useful for success-rate-vs-density
    sweeps (experiment E6). *)
