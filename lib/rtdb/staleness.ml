module Program = Pindisk.Program
module Intmath = Pindisk_util.Intmath

type outcome = { latency : int; age_at_completion : int; restarts : int }

(* The version on the air at slot t: sampled at the last update instant at
   or before the period boundary that opens t's broadcast period. *)
let version_on_air ~period ~update_period t =
  let boundary = t / period * period in
  boundary / update_period

let retrieve ~program ~file ~needed ~update_period ~start =
  if update_period < 1 then invalid_arg "Staleness.retrieve: update_period";
  if start < 0 then invalid_arg "Staleness.retrieve: negative start";
  if needed < 1 then invalid_arg "Staleness.retrieve: needed must be >= 1";
  (match Program.capacity program file with
  | exception Not_found -> invalid_arg "Staleness.retrieve: file not in program"
  | cap ->
      if needed > cap then
        invalid_arg "Staleness.retrieve: needed exceeds capacity");
  if Program.occurrences_per_period program file = 0 then
    invalid_arg "Staleness.retrieve: file never broadcast";
  let max_slots = Program.data_cycles program 50 in
  let period = Program.period program in
  let collected = Hashtbl.create 8 in
  let collecting_version = ref (-1) in
  let restarts = ref 0 in
  let t = ref start in
  let result = ref None in
  while !result = None && !t - start < max_slots do
    (match Program.block_at program !t with
    | Some (f, idx) when f = file ->
        let v = version_on_air ~period ~update_period !t in
        if v <> !collecting_version then begin
          if Hashtbl.length collected > 0 then incr restarts;
          Hashtbl.reset collected;
          collecting_version := v
        end;
        if not (Hashtbl.mem collected idx) then begin
          Hashtbl.replace collected idx ();
          if Hashtbl.length collected >= needed then
            result :=
              Some
                {
                  latency = !t - start + 1;
                  age_at_completion = !t - (v * update_period);
                  restarts = !restarts;
                }
        end
    | Some _ | None -> ());
    incr t
  done;
  !result

type summary = {
  trials : int;
  starved : int;
  mean_latency : float;
  max_latency : int;
  mean_age : float;
  max_age : int;
  consistency_ratio : float;
  mean_restarts : float;
}

let sweep ~program ~file ~needed ~update_period ~avi =
  let cycle =
    Intmath.lcm (Program.data_cycle program)
      (Intmath.lcm update_period (Program.period program))
  in
  let starved = ref 0 in
  let lat_sum = ref 0 and lat_max = ref 0 in
  let age_sum = ref 0 and age_max = ref 0 in
  let consistent = ref 0 and restart_sum = ref 0 in
  for start = 0 to cycle - 1 do
    match retrieve ~program ~file ~needed ~update_period ~start with
    | None -> incr starved
    | Some o ->
        lat_sum := !lat_sum + o.latency;
        lat_max := max !lat_max o.latency;
        age_sum := !age_sum + o.age_at_completion;
        age_max := max !age_max o.age_at_completion;
        if o.age_at_completion <= avi then incr consistent;
        restart_sum := !restart_sum + o.restarts
  done;
  let n = float_of_int cycle in
  let completed = float_of_int (cycle - !starved) in
  {
    trials = cycle;
    starved = !starved;
    mean_latency =
      (if completed = 0.0 then Float.nan else float_of_int !lat_sum /. completed);
    max_latency = !lat_max;
    mean_age =
      (if completed = 0.0 then Float.nan else float_of_int !age_sum /. completed);
    max_age = !age_max;
    consistency_ratio = float_of_int !consistent /. n;
    mean_restarts =
      (if completed = 0.0 then Float.nan
       else float_of_int !restart_sum /. completed);
  }
