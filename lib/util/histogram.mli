(** Sample-buffer histograms for service metrics.

    A growable buffer of float samples with percentile summaries computed
    through {!Stats}.  The serving layer records one latency and one
    iteration-count sample per request; percentiles are exact (computed
    from the retained samples), which is the right trade at the scale a
    single process serves between snapshots.  Not thread-safe: callers
    serialize access (the service records from its commit phase). *)

type t

val create : ?initial_capacity:int -> unit -> t
(** Empty histogram.  [initial_capacity] sizes the first buffer
    (default 64); the buffer doubles as needed. *)

val add : t -> float -> unit
(** Record one sample.  Non-finite samples raise [Invalid_argument] —
    a NaN would silently poison every percentile. *)

val count : t -> int

val clear : t -> unit
(** Forgets all samples (keeps the buffer). *)

val to_array : t -> float array
(** Copy of the samples in insertion order. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]]; raises [Invalid_argument]
    when empty (see {!Stats.percentile}). *)

type summary = {
  n : int;
  mean : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

val summarize : t -> summary option
(** [None] when no samples have been recorded.  Copies and sorts the
    samples once (O(n log n)); the percentiles are {!Stats.percentile}'s. *)
