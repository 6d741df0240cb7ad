module Q = Pindisk_util.Q
module Task = Pindisk_pinwheel.Task

type cond = { a : int; b : int }
type source = Emitted of int | Derived of int

type step =
  | Implies of { premise : source; scale : int; target : cond }
  | Conjoin of {
      base : source;
      guaranteed : int;
      scale : int;
      alias : source;
      target : cond;
    }
  | Align of { base : source; scale : int; alias : source; target : cond }

type t = {
  file : int;
  m : int;
  d : int array;
  transform : string;
  nice : cond list;
  steps : step list;
}

let make ~file ~m ~d ~transform ~nice ~steps =
  { file; m; d = Array.copy d; transform; nice; steps }

let reduction ~file ~m ~tolerance ~window =
  let steps =
    List.init (tolerance + 1) (fun j ->
        Implies { premise = Emitted 0; scale = 1; target = { a = m + j; b = window } })
  in
  {
    file;
    m;
    d = Array.make (tolerance + 1) window;
    transform = "reduction";
    nice = [ { a = m + tolerance; b = window } ];
    steps;
  }

let density t = Q.sum (List.map (fun c -> Q.make c.a c.b) t.nice)
let step_count t = List.length t.steps

let pp_cond ppf c = Format.fprintf ppf "pc(%d,%d)" c.a c.b
