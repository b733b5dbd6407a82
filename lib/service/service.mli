open Dadu_core

(** The batched IK serving layer: scheduler → seed cache → solver chain →
    metrics, with per-request deadlines and tracing.

    One {!t} is a long-lived server object: it owns a warm-start
    {!Seed_cache}, a {!Metrics} registry accumulating across batches, and
    a {!Scheduler} over an optional caller-owned domain pool.  Each
    {!solve_requests} call:

    + validates every problem ({!Ik.validate}) — malformed requests
      become typed {!reply} values, they are never dispatched and no
      exception crosses a domain boundary;
    + looks up warm-start seeds for valid problems (serially, in input
      order) from targets solved in earlier batches or earlier chunks of
      this one, and decides deadline expiry from the clock read as each
      chunk starts;
    + solves each chunk in parallel through the {!Fallback} chain with
      per-attempt iteration budgets — each worker domain reusing its own
      {!Dadu_core.Workspace.local} pool — while requests past their
      deadline or the batch budget short-circuit to the chain's first
      (cheapest) solver alone;
    + stores converged configurations back into the cache and records
      metrics (serially, in input order).

    Results are positionally deterministic: with no deadlines, no batch
    budget and [time_budget_s = None], replies (statuses, joint vectors,
    solver choices, cache hits) are byte-identical whatever the pool
    size, because every cache and metrics mutation happens in the
    scheduler's serial phases and expiry cannot trigger (DESIGN.md §10).

    When a {!Dadu_util.Trace.t} is supplied, every request contributes
    monotonic-clock spans — [prepare], one [fallback-tier] per solver
    attempt, [solve], [commit] — exportable as JSON lines
    ([dadu serve-batch --trace out.jsonl]).  Each scheduler wave
    additionally emits one [phase:prepare] / [phase:work] /
    [phase:commit] span under the sentinel request [-1] (with [base] and
    [len] attrs), and the same durations accumulate into
    {!Metrics.record_phase} whether or not a trace is attached. *)

type config = {
  solvers : Fallback.kind list;
      (** fallback chain, first = primary; keep it ordered cheapest
          first — past-deadline requests run only the head *)
  speculations : int;  (** Quick-IK speculation count *)
  accuracy : float;  (** position tolerance, meters *)
  max_iterations : int;  (** per solver attempt *)
  time_budget_s : float option;
      (** per-problem wall-clock budget checked between attempts; breaks
          determinism — leave [None] unless serving live traffic *)
  warm_start : bool;  (** consult the seed cache *)
  cache_cell_m : float;  (** seed-cache grid cell side, meters *)
  cache_capacity : int;  (** seed-cache cells before LRU eviction *)
  chunk : int;  (** scheduler wave size *)
  lockstep : bool;
      (** solve each wave's Quick-IK head tier as one lockstep mega-batch
          sweep ({!Dadu_core.Megabatch}) instead of per-request solves.
          Replies are bit-identical to the per-request path (lane
          identity; pinned by test) — only throughput changes.  Waves
          whose head tier is not Quick-IK (breaker-filtered) and batches
          under fault injection fall back to per-request dispatch. *)
  guard : Ik.guard option;
      (** divergence guard threaded into every solver attempt; [None]
          (the default) keeps solver traces bit-identical to the
          unguarded library *)
  fault : Dadu_util.Fault.t;
      (** chaos-testing registry; each request consults its own
          {!Dadu_util.Fault.fork} keyed by the request index, so
          injection is independent of pool size.  Default disabled. *)
  breaker : Breaker.settings option;  (** per-solver circuit breakers *)
  retries : int;
      (** perturbed-seed re-entries of the chain after it is exhausted
          without convergence (0 = off) *)
  retry_scale : float;
      (** std-dev (radians) of the Gaussian jitter applied to [θ₀] per
          retry; jitter is seeded by (request index, retry ordinal) so
          retries replay identically across pool sizes *)
  seed_library : Posture_library.t option;
      (** posture bank consulted for nearest-neighbour seed candidates;
          only offered to chains it {!Posture_library.matches} *)
  seed_candidates : int;
      (** speculative seed starts per request ({!Seed_select}): with the
          default 1 the seeding path is exactly the classic warm-start
          lookup; with [S >= 2] up to [S] candidate starts (θ₀, cache
          hit, library neighbour, zero, perturbed best) are scored by
          first-iteration FK error and only the winner is dispatched.
          Each wave's prepare snapshots every read of mutable serial
          state (seed-cache probe, posture-library NN query, breaker
          gates, fault forks, deadline clock) serially in ordinal order,
          scores all the wave's candidates in chunked sweeps of the SoA
          row kernel on the pool ({!Seed_select.choose_wave}), and seals
          the winners serially (DESIGN.md §14) — replies stay
          byte-identical across pool sizes and lockstep modes *)
}

val default_config : config
(** [Quick_ik → Dls → Sdls], 64 speculations, 1e-2 m accuracy, 2 000
    iterations per attempt, no time budget, warm starts on a 5 cm grid,
    4096 cells, chunk 64; resilience extras all off (no guard, no
    faults, no breakers, no retries, jitter 0.1 rad). *)

type t

val create : ?pool:Dadu_util.Domain_pool.t -> ?config:config -> unit -> t
(** The pool, when given, is borrowed — the caller shuts it down.
    Raises [Invalid_argument] on a nonsensical config (empty chain,
    non-positive speculations/iterations/chunk/cell/capacity). *)

val config : t -> config

val breaker_states : t -> (Fallback.kind * Breaker.state) list
(** Current breaker per chain tier, in chain order; [[]] when breakers
    are off.  Read between batches (the states mutate during serving). *)

type request = {
  problem : Ik.problem;
  deadline_s : float option;
      (** seconds from the batch's start by which this request should be
          dispatched; once passed it is served by the cheapest tier and
          tagged [deadline_exceeded] *)
  session : Session.t option;
      (** the trajectory session this request belongs to.  Session
          requests warm-start from the session's slot (the previous
          waypoint's converged solution) and bypass the shared seed
          cache in both directions; the scheduler wave is cut so two
          requests of one session never share a wave, making the later
          one's prepare observe the earlier one's commit even inside a
          single batch (DESIGN.md §15) *)
  ordinal : int option;
      (** stable per-request ordinal overriding the batch index as the
          noise key for speculative perturbations and retry jitter —
          the server assigns the session's waypoint sequence number, so
          a waypoint's reply is independent of how requests were batched *)
}

val request :
  ?deadline_s:float -> ?session:Session.t -> ?ordinal:int -> Ik.problem -> request
(** Raises [Invalid_argument] on a negative deadline or ordinal. *)

type reply =
  | Solved of {
      result : Ik.result;
      solver : Fallback.kind;  (** chain member that produced [result] *)
      fallbacks : int;  (** solvers tried after the first *)
      cache_hit : bool;  (** warm-started from a cached neighbour *)
      session_hit : bool;
          (** the session's warm-start slot was filled and offered
              (always false for session-free requests; [cache_hit] is
              always false for session requests — the two lookup paths
              are disjoint) *)
      deadline_exceeded : bool;
          (** short-circuited: only the cheapest solver ran *)
      breaker_skips : int;  (** tiers skipped by open breakers *)
      retries : int;  (** perturbed-seed re-entries that ran *)
      retry_converged : bool;
          (** the first pass failed and a retry converged *)
      trail : (Fallback.kind * Ik.status) list;
          (** every attempt across all passes with its FK-verified
              status, in execution order *)
      latency_s : float;
    }
      (** dispatched; [result.status] says whether it converged *)
  | Rejected of Ik.invalid  (** failed validation, never dispatched *)
  | Faulted of string  (** a solver raised; the exception, printed *)

val solve_requests :
  ?budget_s:float -> ?trace:Dadu_util.Trace.t -> t -> request array -> reply array
(** [reply.(i)] answers [requests.(i)].  [budget_s] is a batch-level time
    budget: once the batch has run that long, every request of a later
    wave expires (cheapest tier, tagged), so tail requests degrade
    instead of queueing unboundedly.  Expiry is decided from the clock
    reads taken serially as each wave starts, before its prepare — which
    requests expire depends on the clock, never on the pool size. *)

val solve_batch : t -> Ik.problem array -> reply array
(** {!solve_requests} with no deadlines, no budget, no trace — the fully
    deterministic path. *)

val seed_cache : t -> Seed_cache.t
(** The shared warm-start cache — exposed for tests that pre-load or
    poison cells (sessions must never read it). *)

val metrics : t -> Metrics.snapshot
(** Cumulative across every batch served so far. *)

val render_metrics : t -> string

val reset_metrics : t -> unit

val cache_length : t -> int
(** Live seed-cache cells (for tests and capacity tuning). *)
