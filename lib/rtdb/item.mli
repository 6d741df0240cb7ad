(** Real-time database items with absolute temporal consistency constraints.

    The paper's motivating example (Section 1): an AWACS data item recording
    the position of a 900 km/h aircraft must reach clients within 400 ms to
    guarantee 100 m positional accuracy, while a 60 km/h tank tolerates
    6,000 ms. {!avi_of_velocity} is that arithmetic; an {!t} couples the
    consistency constraint with the item's size and its value to the
    mission (used by value-cognizant admission control). *)

type t = private {
  id : int;
  name : string;
  blocks : int;  (** size in broadcast blocks *)
  avi : int;  (** absolute validity interval, in seconds: retrieval must
                  complete within this long of tuning in *)
  value : int;  (** importance to admission control; higher wins *)
}

val make :
  ?value:int -> id:int -> name:string -> blocks:int -> avi:int -> unit -> t
(** [value] defaults to 1. Raises [Invalid_argument] unless [id >= 0],
    [blocks >= 1], [avi >= 1] and [value >= 0]. *)

val avi_of_velocity : velocity_kmh:float -> accuracy_m:float -> float
(** Seconds within which a position of an object moving at [velocity_kmh]
    must be delivered to guarantee [accuracy_m] of positional accuracy:
    [accuracy / velocity]. The paper's aircraft: 900 km/h, 100 m →
    0.4 s; its tank: 60 km/h, 100 m → 6 s. Raises [Invalid_argument]
    unless both arguments are positive and finite (NaN included). *)
