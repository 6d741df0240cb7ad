module Obs = Pindisk_obs
module Intmath = Pindisk_util.Intmath
module Shard = Pindisk.Shard
module File_spec = Pindisk.File_spec
module Program = Pindisk.Program

let sinks = Retire.sinks ~prefix:"multi"
let obs_channels = Obs.Registry.gauge "channel.channels"
let obs_tuners = Obs.Registry.gauge "channel.tuners"
let obs_assigned = Obs.Registry.counter "channel.assigned"
let obs_unserved = Obs.Registry.counter "channel.unserved"

let obs_chan_requests c =
  Obs.Registry.counter (Printf.sprintf "channel.%d.requests" c)

type member = {
  issued : int;
  file : int;
  needed : int;
  deadline : int;
  weight : int;
}

let members_of_trace trace =
  List.map
    (fun (r : Workload.request) ->
      {
        issued = r.Workload.issued;
        file = r.Workload.file;
        needed = r.Workload.needed;
        deadline = r.Workload.deadline;
        weight = 1;
      })
    trace

(* 100 x the largest per-channel data cycle: every channel's block phase
   realigns within the window, mirroring the single-channel default. *)
let default_window (design : Shard.t) =
  Array.fold_left
    (fun acc (c : Shard.channel) -> max acc (Program.data_cycles c.Shard.program 100))
    100 design.Shard.channels

let channel_program (design : Shard.t) c =
  design.Shard.channels.(c).Shard.program

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let validate_member ~what design (m : member) =
  if m.issued < 0 then invalid_arg (what ^ ": negative issue slot");
  let spec =
    match Shard.spec design m.file with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "%s: unknown file %d" what m.file)
  in
  if m.needed < 1 || m.needed > spec.File_spec.capacity then
    invalid_arg
      (Printf.sprintf "%s: needed %d outside [1, %d] for file %d" what m.needed
         spec.File_spec.capacity m.file)

let record_design ~obs (design : Shard.t) ~tuners =
  if obs then begin
    Obs.Registry.set obs_channels (Array.length design.Shard.channels);
    Obs.Registry.set obs_tuners tuners
  end

let run ?max_slots ~design ~tuners ~fault ~seed trace =
  if tuners < 1 then invalid_arg "Multi.run: tuners must be >= 1";
  let window =
    match max_slots with Some w -> w | None -> default_window design
  in
  if window < 1 then invalid_arg "Multi.run: max_slots must be >= 1";
  let obs = Obs.Control.enabled () in
  record_design ~obs design ~tuners;
  let rows =
    List.mapi
      (fun k (r : Workload.request) ->
        let m = List.hd (members_of_trace [ r ]) in
        validate_member ~what:"Multi.run" design m;
        let listen = take tuners (Shard.channels_of design m.file) in
        let reachable =
          List.fold_left
            (fun acc c ->
              acc + Program.capacity (channel_program design c) m.file)
            0 listen
        in
        if listen = [] || reachable < m.needed then begin
          (* Shed file, or the tuner budget cannot see [needed] distinct
             pieces: permanently unservable for this client. *)
          if obs then Obs.Registry.incr obs_unserved;
          {
            Retire.file = m.file;
            deadline = m.deadline;
            elapsed = None;
            weight = 1;
            losses = 0;
          }
        end
        else begin
          if obs then begin
            Obs.Registry.incr obs_assigned;
            List.iter (fun c -> Obs.Registry.incr (obs_chan_requests c)) listen
          end;
          let lanes =
            Array.of_list
              (List.map
                 (fun c ->
                   let fl =
                     fault ~channel:c
                       ~seed:(Intmath.mix64 (Intmath.mix64 (seed + k) + c))
                   in
                   Fault.reset_to fl m.issued;
                   Cohort.lane (channel_program design c) ~file:m.file
                     ~issued:m.issued fl)
                 listen)
          in
          let elapsed, losses, _ =
            Cohort.sweep ~needed:m.needed ~max_slots:window lanes
          in
          {
            Retire.file = m.file;
            deadline = m.deadline;
            elapsed;
            weight = 1;
            losses;
          }
        end)
      trace
  in
  Retire.retire ~sinks rows

let run_population ?pool ?max_slots ?sampled ~design ~tuners ~model ~seed
    members =
  if tuners < 1 then invalid_arg "Multi.run_population: tuners must be >= 1";
  let window =
    match max_slots with Some w -> w | None -> default_window design
  in
  if window < 1 then invalid_arg "Multi.run_population: max_slots must be >= 1";
  let obs = Obs.Control.enabled () in
  record_design ~obs design ~tuners;
  let channels = Array.length design.Shard.channels in
  let per_channel : member list array = Array.make channels [] in
  let unserved = ref [] in
  List.iter
    (fun (m : member) ->
      validate_member ~what:"Multi.run_population" design m;
      if m.weight < 0 then
        invalid_arg "Multi.run_population: negative weight";
      (* The best listened channel that alone carries [needed] pieces:
         channels_of is ordered by decreasing share, so the head of the
         listened prefix is the only candidate worth checking. *)
      let listen = take tuners (Shard.channels_of design m.file) in
      let best =
        List.find_opt
          (fun c ->
            Program.capacity (channel_program design c) m.file >= m.needed)
          listen
      in
      match best with
      | Some c ->
          per_channel.(c) <- m :: per_channel.(c);
          if obs then begin
            Obs.Registry.add obs_assigned m.weight;
            Obs.Registry.add (obs_chan_requests c) m.weight
          end
      | None ->
          unserved := m :: !unserved;
          if obs then Obs.Registry.add obs_unserved m.weight)
    members;
  (* Every served channel's rows in channel order, built back to front
     so each channel's rows are prepended once, then retired in one
     fold. *)
  let rows = ref [] in
  for c = channels - 1 downto 0 do
    match per_channel.(c) with
    | [] -> ()
    | ms ->
        let program = channel_program design c in
        let period = Program.period program in
        rows :=
          Cohort.population_rows ?pool ?sampled ~max_slots:window ~program
            ~model:(model ~channel:c)
            ~seed:(Intmath.mix64 (seed + c))
            ~rest:!rows
            (List.rev_map
               (fun (m : member) ->
                 {
                   Cohort.key =
                     {
                       Cohort.file = m.file;
                       phase = m.issued mod period;
                       needed = m.needed;
                       deadline = m.deadline;
                     };
                   weight = m.weight;
                 })
               ms)
  done;
  let served = Cohort.retire !rows in
  match !unserved with
  | [] -> served
  | ms ->
      Retire.merge
        (Retire.retire ~sinks
           (List.rev_map
              (fun (m : member) ->
                {
                  Retire.file = m.file;
                  deadline = m.deadline;
                  elapsed = None;
                  weight = m.weight;
                  losses = 0;
                })
              ms))
        served
