open Dadu_util
open Dadu_core

(** Service observability: counters and latency/iteration histograms.

    Counters are [Atomic.t]-backed, so concurrent [record] calls cannot
    lose increments; histograms are mutex-guarded.  The service records
    from the scheduler's serial commit phase, which additionally makes
    the recorded stream deterministic.

    Invariants (tested):
    [converged + failed + rejected + faulted = requests] and
    [cache_hits + cache_misses = requests - rejected - faulted -
    session_requests] (seed-cache lookups happen only for problems that
    pass validation, complete their solve, and do not belong to a
    trajectory session — session requests bypass the shared cache, their
    warm-start slot is counted by [session_warm] instead). *)

type t

val create : unit -> t

type event =
  | Rejected of Ik.invalid  (** failed validation; never dispatched *)
  | Faulted of string  (** a solver raised; captured, problem dropped *)
  | Solved of {
      converged : bool;
      diverged : bool;  (** reported attempt ended [Diverged] *)
      fallbacks : int;  (** extra solvers tried after the first *)
      cache_hit : bool;  (** warm-started from the seed cache *)
      session : bool;  (** belongs to a trajectory session *)
      session_hit : bool;
          (** the session's warm-start slot was filled and offered
              (meaningful only when [session] is true) *)
      deadline_exceeded : bool;
          (** dispatched past its deadline or the batch budget:
              short-circuited to the cheapest solver tier *)
      breaker_skips : int;  (** solver tiers skipped by open breakers *)
      retries : int;  (** perturbed-seed re-entries of the chain *)
      retry_converged : bool;  (** a retry (not the first pass) converged *)
      latency_s : float;  (** end-to-end solve wall clock *)
      iterations : int;  (** iterations of the reported attempt *)
    }

val record : t -> event -> unit

type net_event =
  | Timeout  (** a connection hit its idle or frame read deadline *)
  | Disconnect  (** a connection dropped uncleanly (desync, reset, cut) *)
  | Journal_append  (** one record written to the session journal *)
  | Journal_replay  (** one record applied from the journal at startup *)
  | Retry_after_shed  (** a shed that attached a retry_after hint *)
  | Busy_refusal  (** a connection refused at the connection cap *)

val record_net : t -> net_event -> unit
(** Server-side failure modes outside the solve pipeline (connection
    hygiene and crash safety); each bumps its own counter and none
    count as a request. *)

val record_lockstep : t -> int -> unit
(** [record_lockstep t n] counts [n] lanes whose head tier was solved by
    the lockstep mega-batch sweep (Service [lockstep] mode); bumped once
    per scheduler wave, from the serial phase. *)

val record_seed : t -> library_hit:bool -> Seed_select.source -> unit
(** One speculative seed selection: [library_hit] when the posture
    library contributed a nearest-neighbour candidate, and the winning
    candidate's provenance.  Recorded from the scheduler's serial
    prepare phase, once per request with [seed_candidates >= 2]. *)

type phase = Prepare | Work | Commit
(** One scheduler wave phase (mirrors [Scheduler.wave_phase]; kept
    separate so this module stays scheduler-independent). *)

val phase_name : phase -> string
(** ["prepare"], ["work"], ["commit"]. *)

val record_phase : t -> phase -> float -> unit
(** [record_phase t p dur_s] accumulates [dur_s] seconds of wall time
    into phase [p]'s total.  Called once per wave per phase from the
    scheduler's orchestrating domain (via its [phase_done] hook), so the
    totals decompose batch wall time into the prepare/commit phases
    versus the parallel work phase — the Amdahl breakdown of a batch. *)

val reset : t -> unit

type snapshot = {
  requests : int;
  converged : int;
  failed : int;  (** dispatched but no solver in the chain converged *)
  rejected : int;
  faulted : int;
  fallback_used : int;  (** problems needing at least one fallback *)
  deadline_exceeded : int;  (** requests short-circuited past deadline *)
  cache_hits : int;
  cache_misses : int;
  diverged : int;  (** replies whose reported attempt diverged *)
  breaker_skips : int;  (** total tiers skipped by open breakers *)
  retries : int;  (** total perturbed-seed retries *)
  retry_converged : int;  (** requests rescued by a retry *)
  lockstep_lanes : int;  (** lanes solved via the lockstep mega-batch *)
  session_requests : int;  (** requests served under a trajectory session *)
  session_warm : int;  (** session requests offered the warm-start slot *)
  library_hits : int;  (** posture-library NN candidates offered *)
  seed_theta0_wins : int;  (** speculative selections won by θ₀ *)
  seed_session_wins : int;  (** … by the session warm-start slot *)
  seed_cache_wins : int;  (** … by the seed-cache hit *)
  seed_library_wins : int;  (** … by the posture-library neighbour *)
  seed_zero_wins : int;  (** … by the clamped zero posture *)
  seed_perturbed_wins : int;  (** … by a perturbed base *)
  timeouts : int;  (** connections dropped at a read deadline *)
  disconnects : int;  (** connections dropped uncleanly *)
  journal_appends : int;  (** session journal records written *)
  journal_replays : int;  (** session journal records applied at startup *)
  retry_after_sheds : int;  (** sheds that attached a retry_after hint *)
  busy_refusals : int;  (** connections refused at the connection cap *)
  prepare_s : float;  (** wall seconds in serial/snapshot prepare phases *)
  work_s : float;  (** wall seconds in parallel work phases *)
  commit_s : float;  (** wall seconds in serial commit phases *)
  latency : Histogram.summary option;  (** seconds; [None] before traffic *)
  iterations : Histogram.summary option;
}

val snapshot : t -> snapshot

val serial_fraction : snapshot -> float option
(** [(prepare_s + commit_s) / total phase time]: the Amdahl serial
    fraction of the wave pipeline.  [None] before any phase has been
    recorded. *)

val render : snapshot -> string
(** The metrics table `dadu serve-batch` prints: counters, cache hit
    rate, the per-phase wall-time breakdown with its serial fraction,
    latency p50/p95/p99 in milliseconds, iteration percentiles. *)
