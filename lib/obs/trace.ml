(* A bounded ring-buffer event tracer. Ticks are issued by one global
   fetch-and-add, so they are unique and monotonic across domains; the
   event with tick [t] lands at ring index [(t - 1) mod capacity] and
   simply overwrites whatever is [capacity] ticks older. Readers take no
   lock — [events] is meant to be called when writers have quiesced
   (snapshots, post-run reports); a concurrent reader can observe an
   event slot mid-replacement, never a corrupt value. *)

type span =
  | Slot of { slot : int; file : int; index : int }
  | Fault_burst of { slot : int; length : int }
  | Reconstruct of { file : int; pieces : int; bytes : int }
  | Hot_swap of { slot : int; cause : string }
  | Crash of { slot : int }
  | Recover of { slot : int; replayed : int }

type event = { tick : int; span : span }

let dummy = { tick = 0; span = Fault_burst { slot = 0; length = 0 } }
let default_capacity = 1024

type ring = { mutable arr : event array; mutable cap : int }

let ring = { arr = Array.make default_capacity dummy; cap = default_capacity }
let next = Atomic.make 0 (* ticks issued so far; the next tick is next+1 *)

let record span =
  if Control.enabled () then begin
    let i = Atomic.fetch_and_add next 1 in
    ring.arr.(i mod ring.cap) <- { tick = i + 1; span }
  end

let recorded () = Atomic.get next
let capacity () = ring.cap

let set_capacity c =
  if c < 1 then invalid_arg "Trace.set_capacity: capacity must be >= 1";
  ring.arr <- Array.make c dummy;
  ring.cap <- c

let events () =
  let n = Atomic.get next in
  let k = min n ring.cap in
  List.init k (fun j -> ring.arr.((n - k + j) mod ring.cap))
  |> List.filter (fun e -> e.tick > 0)

let reset () =
  Atomic.set next 0;
  Array.fill ring.arr 0 ring.cap dummy
