let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample")

let mean xs =
  check_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let stddev xs =
  check_nonempty "Stats.stddev" xs;
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let min xs =
  check_nonempty "Stats.min" xs;
  Array.fold_left Float.min xs.(0) xs

let max xs =
  check_nonempty "Stats.max" xs;
  Array.fold_left Float.max xs.(0) xs

let percentile_sorted p sorted =
  check_nonempty "Stats.percentile" sorted;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0, 100]";
  let n = Array.length sorted in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    ((1. -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

let percentile p xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted p sorted

let median xs = percentile 50. xs

let geomean xs =
  check_nonempty "Stats.geomean" xs;
  let sum_logs =
    Array.fold_left
      (fun acc x ->
        if x <= 0. then invalid_arg "Stats.geomean: non-positive sample";
        acc +. log x)
      0. xs
  in
  exp (sum_logs /. float_of_int (Array.length xs))

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  max : float;
}

let summarize xs =
  check_nonempty "Stats.summarize" xs;
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = min xs;
    p50 = median xs;
    p95 = percentile 95. xs;
    max = max xs;
  }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p95=%.4g max=%.4g"
    s.n s.mean s.stddev s.min s.p50 s.p95 s.max

type timing = {
  mean : float;
  min : float;
  q1 : float;
  median : float;
  q3 : float;
  p95 : float;
}

let measure ~units run =
  let samples = 31 in
  let t = Array.make samples 0. in
  for s = 0 to samples - 1 do
    let t0 = Trace.now_s () in
    run ();
    t.(s) <- (Trace.now_s () -. t0) /. units
  done;
  Array.sort Float.compare t;
  let pct p = percentile_sorted p t in
  {
    mean = Array.fold_left ( +. ) 0. t /. float_of_int samples;
    min = t.(0);
    q1 = pct 25.;
    median = pct 50.;
    q3 = pct 75.;
    p95 = pct 95.;
  }
