(* Nearest-rank percentiles with a sample-count guard.

   A percentile is only worth reporting when at least [min_beyond]
   samples lie above it: a p90 of 40 samples is decided by four values,
   and a p99 of 300 by three.  [at] refuses such a request instead of
   returning a number that moves with every outlier. *)

let min_beyond = 10

(* 1-based nearest rank of the p-quantile among [n] sorted samples.  The
   epsilon keeps [p *. n] that should be integral (0.9 * 100) from
   rounding up past it. *)
let rank ~p n = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let beyond ~p n = n - rank ~p n
let enough ~p n = n > 0 && beyond ~p n >= min_beyond

let min_samples ~p =
  let rec go n = if enough ~p n then n else go (n + 1) in
  go 1

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let at ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  if enough ~p n then Some a.(rank ~p n - 1) else None

let get ~p xs =
  match at ~p xs with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf
           "Pct.get: p%g of %d samples leaves fewer than %d beyond it (need %d)"
           (100. *. p) (List.length xs) min_beyond (min_samples ~p))

(* The p-quantile if the samples support it, else the highest one they
   do (the sample with exactly [min_beyond] above it); the second
   component is the percentile actually returned.  For per-layer
   diagnostics only: an end-to-end metric uses [get]. *)
let capped ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0., 0.)
  else if enough ~p n then (a.(rank ~p n - 1), p)
  else
    let r = max 1 (n - min_beyond) in
    (a.(r - 1), float_of_int r /. float_of_int n)

(* Plain middle value (lower middle for an even count), for small sets
   such as repeated set-up timings where no tail is claimed. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.median: no samples" else a.((n - 1) / 2)
