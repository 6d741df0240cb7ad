module Program = Pindisk.Program

type summary = {
  trials : int;
  completed : int;
  missed_deadline : int;
  mean_latency : float;
  max_latency : int;
  min_latency : int;
  total_losses : int;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "%d trials: %d completed, %d missed deadline, latency mean %.2f / min %d \
     / max %d, %d losses"
    s.trials s.completed s.missed_deadline s.mean_latency s.min_latency
    s.max_latency s.total_losses

let run ?max_slots ~program ~file ~needed ~deadline ~fault ~trials ~seed () =
  if trials < 1 then invalid_arg "Experiment.run: trials must be >= 1";
  let rng = Random.State.make [| seed; 0x51b |] in
  let cycle = Program.data_cycle program in
  let completed = ref 0 and missed = ref 0 in
  let sum_latency = ref 0 and max_latency = ref 0 and min_latency = ref max_int in
  let total_losses = ref 0 in
  for k = 0 to trials - 1 do
    let start = Random.State.int rng cycle in
    let outcome =
      match
        Client.retrieve ?max_slots ~program ~file ~needed ~start
          ~fault:(fault ~seed:(Pindisk_util.Intmath.mix64 (seed + k))) ()
      with
      | Ok o -> o
      | Error e ->
          invalid_arg (Format.asprintf "Experiment.run: %a" Client.pp_error e)
    in
    total_losses := !total_losses + outcome.Client.losses;
    (match outcome.Client.elapsed with
    | Some e ->
        incr completed;
        sum_latency := !sum_latency + e;
        if e > !max_latency then max_latency := e;
        if e < !min_latency then min_latency := e;
        if e > deadline then incr missed
    | None -> incr missed)
  done;
  {
    trials;
    completed = !completed;
    missed_deadline = !missed;
    mean_latency =
      (if !completed = 0 then Float.nan
       else float_of_int !sum_latency /. float_of_int !completed);
    max_latency = (if !completed = 0 then 0 else !max_latency);
    min_latency = (if !completed = 0 then 0 else !min_latency);
    total_losses = !total_losses;
  }

let miss_ratio s = float_of_int s.missed_deadline /. float_of_int s.trials
