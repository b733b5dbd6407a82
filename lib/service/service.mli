open Dadu_core

(** The batched IK serving layer: scheduler → seed selection → solver
    chain → metrics, with per-request deadlines and tracing.

    One {!t} is a long-lived server object: it owns a {!Metrics} registry
    accumulating across batches and a {!Scheduler} over an optional
    caller-owned domain pool.  It keeps no answers between requests: a
    one-shot request starts from its own [θ₀] (or from the best of the
    {!Seed_select} candidates when [seed_candidates > 1]), and a session
    request from its session's slot.  Each {!solve_requests} call:

    + validates every problem ({!Ik.validate}) — malformed requests
      become typed {!reply} values, they are never dispatched and no
      exception crosses a domain boundary;
    + picks each valid problem's start (serially, in input order: the
      session slot, the posture-library neighbour, breaker gates) and
      decides deadline expiry from the clock read as each chunk starts;
    + solves each chunk in parallel through the {!Fallback} chain with
      per-attempt iteration budgets — each worker domain reusing its own
      {!Dadu_core.Workspace.local} pool — while requests past their
      deadline or the batch budget short-circuit to the chain's first
      (cheapest) solver alone;
    + stores converged session waypoints into their session slots and
      records metrics (serially, in input order).

    Results are positionally deterministic: with no deadlines, no batch
    budget and [time_budget_s = None], replies (statuses, joint vectors,
    solver choices) are byte-identical whatever the pool size, because
    every slot and metrics mutation happens in the scheduler's serial
    phases and expiry cannot trigger (DESIGN.md §10).  With breakers and
    fault plans off as well, a one-shot reply is a pure function of
    (request, ordinal, config): it does not depend on [chunk], on the
    pool, or on the other requests of the batch.

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
  chunk : int;  (** scheduler wave size *)
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
          default 1 a one-shot starts from its own [θ₀] and a session
          waypoint from its slot; with [S >= 2] up to [S] candidate
          starts (θ₀, session slot, library neighbour, zero, perturbed
          best) are scored by first-iteration FK error and only the
          winner is dispatched.  Each wave's prepare snapshots every read
          of mutable serial state (session slot, posture-library NN
          query, breaker gates, fault forks, deadline clock) serially in
          ordinal order,
          scores all the wave's candidates in chunked sweeps of the SoA
          row kernel on the pool ({!Seed_select.choose_wave}), and seals
          the winners serially (DESIGN.md §14) — replies stay
          byte-identical across pool sizes *)
}

val default_config : config
(** [Quick_ik → Dls → Sdls], 64 speculations, 1e-2 m accuracy, 2 000
    iterations per attempt, no time budget, chunk 64, one seed
    candidate, no library; resilience extras all off (no guard, no
    faults, no breakers, no retries, jitter 0.1 rad). *)

type t

val create : ?pool:Dadu_util.Domain_pool.t -> ?config:config -> unit -> t
(** The pool, when given, is borrowed — the caller shuts it down.
    Raises [Invalid_argument] on a nonsensical config (empty chain,
    non-positive speculations/iterations/chunk). *)

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
          waypoint's converged solution); the scheduler wave is cut so
          two requests of one session never share a wave, making the
          later one's prepare observe the earlier one's commit even
          inside a single batch (DESIGN.md §15) *)
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
      cache_hit : bool;
          (** always [false]: nothing is cached between requests.  Kept
              so reply dumps and the wire keep their ["cache_hit":false]
              field until the benchmark replay stops reading it. *)
      session_hit : bool;
          (** the session's warm-start slot was filled and offered
              (always false for session-free requests) *)
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

val metrics : t -> Metrics.snapshot
(** Cumulative across every batch served so far. *)

val render_metrics : t -> string

val reset_metrics : t -> unit
