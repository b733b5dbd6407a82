open Dadu_core

(** Solver fallback chains: robustness through heterogeneous ensembles.

    HJCD-IK-style batched serving wins throughput with a cheap first-line
    solver and recovers stragglers with heavier methods; this module runs
    a configurable chain (e.g. [Quick_ik → Dls → Sdls]) on one problem,
    stopping at the first solver that converges and keeping the
    best-error attempt when none do.

    Every claimed convergence is re-verified against forward kinematics
    before being reported: a solver whose bookkeeping disagrees with FK
    is demoted to [Stalled] and the chain continues.  The outcome
    therefore never carries [Ik.Converged] with a true end-effector error
    above [config.accuracy]. *)

type kind =
  | Quick_ik
  | Jt_serial
  | Jt_buss
  | Jt_linesearch
  | Pinv
  | Dls
  | Sdls
  | Ccd

val all : (string * kind) list
(** CLI-facing names, e.g. [("quick-ik", Quick_ik)]. *)

val name : kind -> string

val of_string : string -> (kind, string) result

val chain_of_string : string -> (kind list, string) result
(** Comma-separated chain, e.g. ["quick-ik,dls,sdls"].  Rejects empty
    chains and unknown names. *)

val chain_to_string : kind list -> string

val solver : ?speculations:int -> kind -> config:Ik.config -> Ik.problem -> Ik.result
(** One attempt with one solver.  [speculations] (default 64) applies to
    [Quick_ik] only. *)

type outcome = {
  result : Ik.result;  (** the converged attempt, or the best-error one *)
  solver : kind;  (** solver that produced [result] *)
  attempts : int;  (** solvers actually run (≥ 1) *)
  fallbacks : int;  (** [attempts - 1] *)
  trail : (kind * Ik.status) list;
      (** every attempt with its FK-verified status, in chain order — the
          circuit breakers' evidence stream *)
  elapsed_s : float;  (** wall clock across all attempts *)
}

val run :
  ?speculations:int ->
  ?time_budget_s:float ->
  ?attempt_hook:(kind -> start_s:float -> dur_s:float -> Ik.result -> unit) ->
  ?fault:Dadu_util.Fault.t ->
  chain:kind list ->
  config:Ik.config ->
  Ik.problem ->
  outcome
(** Runs the chain in order.  [config.max_iterations] is the per-attempt
    iteration budget.  [time_budget_s], when given, is checked between
    attempts: once the elapsed wall clock exceeds it no further solver is
    tried (an attempt in flight is never preempted, and results become
    timing-dependent — leave it unset where determinism matters).
    [attempt_hook] is called after each attempt with the FK-verified
    result and {!Dadu_util.Trace.now_s} timings — the service's
    fallback-tier trace spans; it must not raise.  Raises
    [Invalid_argument] on an empty chain.

    A raising tier — real bug or injected fault — is contained: the
    attempt becomes a [Diverged] best-effort result (clamped [θ₀],
    honestly scored) and the chain continues, so one crashed solver
    degrades the reply instead of faulting the request.

    [fault] (default disabled) consults three sites once per attempt:
    ["solver-raise"] makes the tier crash, ["solver-nan"] poisons the
    returned [θ], ["solver-lie"] forges a [Converged]/zero-error claim.
    All three are caught by the crash containment, the FK
    re-verification, or the divergence demotion above — they exist to
    exercise exactly those defenses. *)
