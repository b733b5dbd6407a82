(** Summary statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on an empty array. *)

val stddev : float array -> float
(** Sample standard deviation (n−1 denominator); 0 for singletons. *)

val min : float array -> float

val max : float array -> float

val median : float array -> float
(** Median by sorting a copy. *)

val percentile : float -> float array -> float
(** [percentile p xs] for [p] in [\[0, 100\]], linear interpolation between
    closest ranks. *)

val percentile_sorted : float -> float array -> float
(** [percentile_sorted p xs] is [percentile p xs] for [xs] already sorted
    ascending, read without a copy or a sort: summaries that read several
    percentiles sort once. *)

val geomean : float array -> float
(** Geometric mean; all samples must be positive. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  max : float;
}

val summarize : float array -> summary

val pp_summary : Format.formatter -> summary -> unit

type timing = {
  mean : float;
  min : float;
  q1 : float;  (** 25th percentile *)
  median : float;
  q3 : float;  (** 75th percentile *)
  p95 : float;
}
(** Seconds per unit of work; percentiles as {!percentile} reads them. *)

val measure : units:float -> (unit -> unit) -> timing
(** [measure ~units run] times 31 calls of [run] on the monotone clock
    ({!Trace.now_s}), each scaled to seconds per unit ([units] per call).
    The minimum and the quartiles say how far the calls spread, which a
    mean alone hides. *)
