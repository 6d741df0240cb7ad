module Program = Pindisk.Program
module Codec = Pindisk.Codec
module Obs = Pindisk_obs

let obs_swaps = Obs.Registry.counter "adapt.swaps"
let obs_swap_wait = Obs.Registry.histogram "adapt.swap.wait"

type entry = {
  slot : int;
  phase : int;
  cause : string;
  old_digest : string;
  new_digest : string;
}

let pp_entry ppf e =
  Format.fprintf ppf "slot %d (phase %d): %s -> %s: %s" e.slot e.phase
    (String.sub e.old_digest 0 8)
    (String.sub e.new_digest 0 8)
    e.cause

let digest p = Digest.to_hex (Digest.string (Codec.to_string p))

type t = {
  mutable program : Program.t;
  mutable origin : int;
  mutable live_digest : string;
  mutable staged : (Program.t * string * string) option;
      (* program, digest, cause *)
  mutable staged_at : int option; (* slot the staging was decided, if told *)
  mutable log : entry list; (* newest first *)
}

let create program =
  { program; origin = 0; live_digest = digest program; staged = None;
    staged_at = None; log = [] }

let block_at t slot =
  if slot < t.origin then invalid_arg "Swap.block_at: slot before origin";
  Program.block_at t.program (slot - t.origin)

let stage ?slot t ~cause p =
  let d = digest p in
  if d = t.live_digest then begin
    t.staged <- None;
    t.staged_at <- None
  end
  else begin
    (* Re-staging keeps the original decision slot: the wait metric below
       measures decision-to-installation latency, and a controller revising
       its plan mid-wait is still the same pending decision. *)
    t.staged <- Some (p, d, cause);
    if t.staged_at = None then t.staged_at <- slot
  end

let tick t slot =
  match t.staged with
  | None -> None
  | Some (p, d, cause) ->
      let phase = (slot - t.origin) mod Program.period t.program in
      if phase <> 0 then None
      else begin
        let entry =
          { slot; phase; cause; old_digest = t.live_digest; new_digest = d }
        in
        t.program <- p;
        t.origin <- slot;
        t.live_digest <- d;
        t.staged <- None;
        if Obs.Control.enabled () then begin
          Obs.Registry.incr obs_swaps;
          (match t.staged_at with
          | Some s when s <= slot -> Obs.Histogram.observe obs_swap_wait (slot - s)
          | _ -> ());
          Obs.Trace.record (Obs.Trace.Hot_swap { slot; cause })
        end;
        t.staged_at <- None;
        t.log <- entry :: t.log;
        Some entry
      end

let log t = List.rev t.log
