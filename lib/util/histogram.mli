(** Log-bucketed histograms for service metrics.

    Samples are counted in log-spaced buckets keyed by their IEEE bits:
    the exponent plus the top 7 mantissa bits, so 128 buckets per binade
    over \[2{^-24}, 2{^24}).  One more bucket holds everything below
    that range (zero included) and one everything above it.  A binade's
    128 counters (1 KB) are allocated the first time a sample lands in
    it, so a histogram that has recorded nothing holds none, and none
    ever holds more than 48 rows.  Count, sum, min and max are kept
    exactly.

    A percentile is an estimate: each order statistic is its bucket's
    lower edge, clamped to \[min, max\].  Over the bucketed range that
    is within a relative 2{^-7} (0.78 %) below the true sample, and every
    integer below 256 is a bucket edge, so on such samples the summary
    equals {!Stats.percentile}'s bit for bit.  Not thread-safe: callers
    serialize access (the service records from its commit phase). *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample.  Non-finite and negative samples raise
    [Invalid_argument]: a NaN would poison the sum, and the relative
    bound does not hold across zero.  Allocates nothing once the
    sample's binade has been hit. *)

val count : t -> int

val clear : t -> unit
(** Forgets all samples and frees the counters. *)

type summary = {
  n : int;
  mean : float;  (** sum / n, the sum kept in insertion order *)
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

val summarize : t -> summary option
(** [None] when no samples have been recorded.  Walks the buckets: no
    copy, no sort, and nothing allocated beyond the result, whatever the
    sample count.  p50/p95/p99 interpolate between two order statistics
    with {!Stats.percentile_sorted}'s rank and weight. *)
