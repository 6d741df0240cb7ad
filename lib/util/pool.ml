(* A hand-rolled domain pool (OCaml 5 [Domain] + [Atomic]; no external
   dependencies). Workers park on a condition variable; [parallel_for]
   publishes one job (a generation-stamped index range) and participates
   itself, so a pool of size 1 degenerates to a plain sequential loop and
   the submitting domain is never idle. Indices are claimed with a
   fetch-and-add work counter, which balances uneven piece sizes. *)

type job = {
  run : int -> unit;
  n : int;
  next : int Atomic.t; (* next unclaimed index *)
  pending : int Atomic.t; (* indices not yet completed *)
  error : exn option Atomic.t; (* first exception, re-raised by the caller *)
  job_lock : Mutex.t;
  finished : Condition.t;
}

type t = {
  mutable workers : unit Domain.t array; (* set once, right after spawn *)
  lock : Mutex.t;
  wake : Condition.t;
  mutable current : job option;
  mutable generation : int;
  mutable stopped : bool;
}

let size t = Array.length t.workers + 1

(* First error wins: a CAS from [None], so concurrent failures from
   several domains race benignly and the fast-abort read below needs no
   lock at all. *)
let record_error job e =
  ignore (Atomic.compare_and_set job.error None (Some e))

(* Claim and complete indices until the job is exhausted. Once an error is
   recorded the remaining indices are drained without running, so the
   caller's completion wait still terminates. *)
let execute job =
  let rec go () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      (match Atomic.get job.error with
      | None -> ( try job.run i with e -> record_error job e)
      | Some _ -> ());
      if Atomic.fetch_and_add job.pending (-1) = 1 then begin
        Mutex.lock job.job_lock;
        Condition.broadcast job.finished;
        Mutex.unlock job.job_lock
      end;
      go ()
    end
  in
  go ()

let worker t =
  let last = ref 0 in
  let rec loop () =
    Mutex.lock t.lock;
    while (not t.stopped) && (t.current = None || t.generation = !last) do
      Condition.wait t.wake t.lock
    done;
    if t.stopped then Mutex.unlock t.lock
    else begin
      last := t.generation;
      let job = Option.get t.current in
      Mutex.unlock t.lock;
      execute job;
      loop ()
    end
  in
  loop ()

let create ?domains () =
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Pool.create: domains must be >= 1";
        d
    | None -> Domain.recommended_domain_count ()
  in
  let domains = min domains 128 in
  let t =
    {
      workers = [||];
      lock = Mutex.create ();
      wake = Condition.create ();
      current = None;
      generation = 0;
      stopped = false;
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

(* Observability handles (registered once): jobs submitted, tasks run
   inline vs fanned out to workers, and the pool width the last fan-out
   actually used — the "pool fan-out" metric the codec paths expose. *)
let obs_jobs = Pindisk_obs.Registry.counter "pool.jobs"
let obs_inline = Pindisk_obs.Registry.counter "pool.tasks.inline"
let obs_fanned = Pindisk_obs.Registry.counter "pool.tasks.fanned"
let obs_fanout = Pindisk_obs.Registry.gauge "pool.fanout"

let parallel_for t ~n f =
  if n < 0 then invalid_arg "Pool.parallel_for: negative count";
  if n > 0 then begin
    let obs = Pindisk_obs.Control.enabled () in
    if obs then Pindisk_obs.Registry.incr obs_jobs;
    if Array.length t.workers = 0 || n = 1 then begin
      if obs then begin
        Pindisk_obs.Registry.add obs_inline n;
        Pindisk_obs.Registry.set obs_fanout 1
      end;
      for i = 0 to n - 1 do
        f i
      done
    end
    else begin
      if obs then begin
        Pindisk_obs.Registry.add obs_fanned n;
        (* With fewer tasks than domains the surplus domains never claim
           an index: report the parallelism actually available, not the
           pool width. *)
        Pindisk_obs.Registry.set obs_fanout (min n (size t))
      end;
      let job =
        {
          run = f;
          n;
          next = Atomic.make 0;
          pending = Atomic.make n;
          error = Atomic.make None;
          job_lock = Mutex.create ();
          finished = Condition.create ();
        }
      in
      Mutex.lock t.lock;
      if t.stopped then begin
        Mutex.unlock t.lock;
        invalid_arg "Pool.parallel_for: pool is shut down"
      end;
      t.current <- Some job;
      t.generation <- t.generation + 1;
      Condition.broadcast t.wake;
      Mutex.unlock t.lock;
      (* The caller always completes its own job even if every worker is
         busy elsewhere, so overlapping submissions cannot deadlock. *)
      execute job;
      Mutex.lock job.job_lock;
      while Atomic.get job.pending > 0 do
        Condition.wait job.finished job.job_lock
      done;
      Mutex.unlock job.job_lock;
      match Atomic.get job.error with Some e -> raise e | None -> ()
    end
  end

let shutdown t =
  Mutex.lock t.lock;
  t.stopped <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.workers
