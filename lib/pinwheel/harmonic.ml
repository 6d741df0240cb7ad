module Intmath = Pindisk_util.Intmath

type assignment = { key : int; offset : int; period : int }

let chain_exponent ~x period =
  if period < x || period mod x <> 0 then None
  else
    let q = period / x in
    if Intmath.is_power_of_two q then Some (Intmath.floor_log2 q) else None

let pack ~x tasks =
  if x < 1 then invalid_arg "Harmonic.pack: x must be >= 1";
  let with_exp =
    List.map
      (fun (key, period) ->
        match chain_exponent ~x period with
        | Some k -> (key, period, k)
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Harmonic.pack: period %d is not of the form %d*2^k" period x))
      tasks
  in
  (* Sort by increasing period so that buddy splitting never fragments. *)
  let sorted = List.sort (fun (_, p, _) (_, q, _) -> compare p q) with_exp in
  (* Free classes by modulus 2^j: the columns [fresh, x) are untouched
     (modulus 1), and [column.(j)], [residue.(j)] is the one free class of
     modulus 2^j >= 2 when bit j of [present] is set. A split fills only
     buckets above the largest present, which were empty, so no bucket
     ever holds two classes. *)
  let column = Array.make Sys.int_size 0 and residue = Array.make Sys.int_size 0 in
  let present = ref 0 and fresh = ref 0 in
  let place (key, period, k) =
    (* Best fit: the largest modulus present, in the lowest column. *)
    let claimed =
      if !present <> 0 then begin
        let j = Intmath.floor_log2 !present in
        present := !present lxor (1 lsl j);
        Some (column.(j), residue.(j), j)
      end
      else if !fresh < x then begin
        incr fresh;
        Some (!fresh - 1, 0, 0)
      end
      else None
    in
    Option.map
      (fun (col, r, j) ->
        (* Claim the subclass [r mod 2^k]; the complement splits into one
           binary sibling at each level between 2^j and 2^k. *)
        for i = j to k - 1 do
          column.(i + 1) <- col;
          residue.(i + 1) <- r + (1 lsl i);
          present := !present lor (1 lsl (i + 1))
        done;
        { key; offset = col + (x * r); period })
      claimed
  in
  (* Packing is lossless, so a placement fails exactly when the chain
     density exceeds 1. *)
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | t :: rest -> (
        match place t with None -> None | Some a -> go (a :: acc) rest)
  in
  go [] sorted
