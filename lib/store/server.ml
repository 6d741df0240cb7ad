module Ida = Pindisk_ida.Ida
module Plan = Pindisk_pinwheel.Plan
module Schedule = Pindisk_pinwheel.Schedule
module Program = Pindisk.Program

type fault_reason = Read_late of int | Read_failed | Queue_overflow

type output = Piece of int * Ida.piece | Idle | Faulted of fault_reason

type t = {
  store : Block_store.t;
  plan : Plan.t;
  air : Plan.dispatcher;
  prefetch : Plan.dispatcher;
  lookahead : int;
  counts : (int, int) Hashtbl.t;
}

let validate ~plan store =
  let prog = Block_store.program store in
  let prog_period = Program.period prog in
  let plan_period = Plan.period plan in
  if plan_period <= 0 || plan_period mod prog_period <> 0 then
    invalid_arg
      (Printf.sprintf
         "Server: plan period %d is not a multiple of program period %d"
         plan_period prog_period);
  List.iter
    (fun id ->
      if Block_store.source_blocks store id = None then
        invalid_arg (Printf.sprintf "Server: plan task %d is not stored" id))
    (Plan.task_ids plan)

(* Dispatch the prefetch cursor's slot: bump the file's occurrence
   counter and submit the feeding read. *)
let prefetch_one t ~issued =
  let air = Plan.slot t.prefetch in
  let file = Plan.next t.prefetch in
  if file <> Schedule.idle then begin
    let occurrence = Option.value ~default:0 (Hashtbl.find_opt t.counts file) in
    Hashtbl.replace t.counts file (occurrence + 1);
    Block_store.submit t.store ~slot:issued ~air ~file ~occurrence
  end

let create ?(lookahead = 4) ~plan store =
  if lookahead < 1 then invalid_arg "Server.create: lookahead must be >= 1";
  validate ~plan store;
  let t =
    {
      store;
      plan;
      air = Plan.create plan;
      prefetch = Plan.create plan;
      lookahead;
      counts = Hashtbl.create 8;
    }
  in
  for _ = 1 to lookahead do
    prefetch_one t ~issued:0
  done;
  t

let slot t = Plan.slot t.air
let step t =
  let now = Plan.slot t.air in
  prefetch_one t ~issued:now;
  let file = Plan.next t.air in
  let out =
    if file = Schedule.idle then Idle
    else
      match Block_store.take t.store ~slot:now with
      | `Ready piece -> Piece (file, piece)
      | `Late ready_at -> Faulted (Read_late ready_at)
      | `Failed -> Faulted Read_failed
      | `Overflow -> Faulted Queue_overflow
      | `Missing ->
          invalid_arg
            (Printf.sprintf "Server.step: no read submitted for busy slot %d"
               now)
  in
  (now, out)

let checkpoint t =
  let slot = Plan.slot t.air in
  let period = Plan.period t.plan in
  {
    Checkpoint.slot;
    period;
    period_stamp = slot / period;
    program_digest = Block_store.program_digest t.store;
    next_read = Block_store.next_read t.store;
    counts =
      List.sort compare
        (Hashtbl.fold (fun f c acc -> (f, c) :: acc) t.counts []);
    queue = Block_store.queue t.store;
  }

let restore ?(lookahead = 4) ~plan store (c : Checkpoint.t) =
  if lookahead < 1 then invalid_arg "Server.restore: lookahead must be >= 1";
  validate ~plan store;
  let digest = Block_store.program_digest store in
  if c.Checkpoint.program_digest <> digest then
    Error
      (Printf.sprintf "checkpoint program digest %s does not match %s"
         c.Checkpoint.program_digest digest)
  else if c.Checkpoint.period <> Plan.period plan then
    Error
      (Printf.sprintf "checkpoint period %d does not match plan period %d"
         c.Checkpoint.period (Plan.period plan))
  else begin
    let air = Plan.create plan in
    for _ = 1 to c.Checkpoint.slot do
      ignore (Plan.next air)
    done;
    let prefetch = Plan.create plan in
    for _ = 1 to c.Checkpoint.slot + lookahead do
      ignore (Plan.next prefetch)
    done;
    let counts = Hashtbl.create 8 in
    List.iter (fun (f, n) -> Hashtbl.replace counts f n) c.Checkpoint.counts;
    Block_store.restore store ~next_read:c.Checkpoint.next_read
      c.Checkpoint.queue;
    Ok { store; plan; air; prefetch; lookahead; counts }
  end
