(* Counts in log-spaced buckets, keyed by a sample's IEEE bits: the 11
   exponent bits and the top [sub_bits] mantissa bits.  Over
   [2^-24, 2^24) that is 128 buckets per binade, each as wide as 2^-7 of
   its binade's lower end.  One count holds everything below the range
   (zero included) and one everything above it. *)

let sub_bits = 7
let subs = 1 lsl sub_bits
let binades = 48

(* biased exponent of 2^-24, the first binade kept *)
let first_exponent = 1023 - 24

(* the shared "not hit yet" row: a binade's 128 counters are allocated
   the first time a sample lands in it *)
let no_row : int array = [||]

type t = {
  mutable total : int;
  mutable below : int; (* samples under 2^-24, zero included *)
  mutable above : int; (* samples at or over 2^24 *)
  rows : int array array; (* one row of [subs] counters per binade *)
  acc : float array; (* sum, min, max: a float array stores them unboxed *)
}

let create () =
  {
    total = 0;
    below = 0;
    above = 0;
    rows = Array.make binades no_row;
    acc = Array.make 3 0.;
  }

let add t x =
  if not (Float.is_finite x) then invalid_arg "Histogram.add: non-finite sample";
  if x < 0. then invalid_arg "Histogram.add: negative sample";
  (* exponent and top mantissa bits; the mask drops the sign of -0. *)
  let key =
    Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) (52 - sub_bits))
    land 0x3_ffff
  in
  let b = (key lsr sub_bits) - first_exponent in
  if b < 0 then t.below <- t.below + 1
  else if b >= binades then t.above <- t.above + 1
  else begin
    if t.rows.(b) == no_row then t.rows.(b) <- Array.make subs 0;
    let row = t.rows.(b) in
    let m = key land (subs - 1) in
    row.(m) <- row.(m) + 1
  end;
  let acc = t.acc in
  if t.total = 0 then begin
    acc.(0) <- x;
    acc.(1) <- x;
    acc.(2) <- x
  end
  else begin
    acc.(0) <- acc.(0) +. x;
    if x < acc.(1) then acc.(1) <- x;
    if x > acc.(2) then acc.(2) <- x
  end;
  t.total <- t.total + 1

let count t = t.total

let clear t =
  t.total <- 0;
  t.below <- 0;
  t.above <- 0;
  Array.fill t.rows 0 binades no_row

type summary = {
  n : int;
  mean : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

(* The bucket of the [k]th smallest sample (0-based, at or past the
   samples below the range), as [b * subs + m] for binade [b] and
   sub-bucket [m], or [binades * subs] for the bucket above the range.
   [seen] counts the samples in the buckets before [(b, m)]. *)
let rec bucket_of_rank t k b m seen =
  if b = binades then binades * subs
  else if m = subs || t.rows.(b) == no_row then
    bucket_of_rank t k (b + 1) 0 seen
  else
    let seen = seen + t.rows.(b).(m) in
    if seen > k then (b * subs) + m else bucket_of_rank t k b (m + 1) seen

(* The [k]th smallest sample's estimate: its bucket's lower edge,
   clamped to [min, max].  Every lower edge in the range is the float
   whose bits are the bucket's key followed by zeros. *)
let[@inline] order_stat t k =
  let edge =
    if k < t.below then 0.
    else
      let bucket = bucket_of_rank t k 0 0 t.below in
      Int64.float_of_bits
        (Int64.shift_left
           (Int64.of_int (bucket + (first_exponent * subs)))
           (52 - sub_bits))
  in
  Float.min t.acc.(2) (Float.max t.acc.(1) edge)

(* [Stats.percentile_sorted]'s rank and weight, over the order
   statistics above *)
let percentile t p =
  let rank = p /. 100. *. float_of_int (t.total - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then order_stat t lo
  else begin
    let w = rank -. float_of_int lo in
    ((1. -. w) *. order_stat t lo) +. (w *. order_stat t hi)
  end

let summarize t =
  if t.total = 0 then None
  else
    Some
      {
        n = t.total;
        mean = t.acc.(0) /. float_of_int t.total;
        min = t.acc.(1);
        p50 = percentile t 50.;
        p95 = percentile t 95.;
        p99 = percentile t 99.;
        max = t.acc.(2);
      }
