type t = {
  alpha : float;
  window : int;
  mutable seen : int; (* reports in the current partial window *)
  mutable losses : int; (* losses in the current partial window *)
  mutable ewma : float;
  mutable windows : int;
}

let create ?(alpha = 0.4) ?(window = 32) () =
  if not (alpha > 0.0 && alpha <= 1.0) then
    invalid_arg "Estimator.create: alpha must be in (0, 1]";
  if window < 1 then invalid_arg "Estimator.create: window must be >= 1";
  { alpha; window; seen = 0; losses = 0; ewma = 0.0; windows = 0 }

let observe t ~lost =
  t.seen <- t.seen + 1;
  if lost then t.losses <- t.losses + 1;
  if t.seen >= t.window then begin
    let rate = float_of_int t.losses /. float_of_int t.seen in
    t.ewma <-
      (if t.windows = 0 then rate
       else (t.alpha *. rate) +. ((1.0 -. t.alpha) *. t.ewma));
    t.windows <- t.windows + 1;
    t.seen <- 0;
    t.losses <- 0
  end

let estimate t = if t.windows = 0 then 0.0 else t.ewma
let window t = t.window
let windows t = t.windows
