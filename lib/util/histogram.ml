type t = { mutable data : float array; mutable len : int }

let create ?(initial_capacity = 64) () =
  if initial_capacity <= 0 then
    invalid_arg "Histogram.create: initial_capacity must be positive";
  { data = Array.make initial_capacity 0.; len = 0 }

let add t x =
  if not (Float.is_finite x) then invalid_arg "Histogram.add: non-finite sample";
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len

let clear t = t.len <- 0

let to_array t = Array.sub t.data 0 t.len

let percentile t p = Stats.percentile p (to_array t)

type summary = {
  n : int;
  mean : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let summarize t =
  if t.len = 0 then None
  else begin
    (* one copy, one sort: every percentile is read from it *)
    let xs = to_array t in
    Array.sort Float.compare xs;
    Some
      {
        n = t.len;
        mean = Stats.mean xs;
        min = xs.(0);
        p50 = Stats.percentile_sorted 50. xs;
        p95 = Stats.percentile_sorted 95. xs;
        p99 = Stats.percentile_sorted 99. xs;
        max = xs.(t.len - 1);
      }
  end
