open Dadu_linalg
open Dadu_kinematics

(** Shared inverse-kinematics types: problems, configuration, results.

    All solvers in this library share the same termination contract so
    their iteration counts are comparable (the paper's Figures 4–5 compare
    iteration counts across methods): stop when the end-effector position
    error drops below [accuracy], when [max_iterations] is reached, or —
    optionally — when no candidate has improved the error for
    [stall_iterations] consecutive iterations. *)

type problem = {
  chain : Chain.t;
  target : Vec3.t;
  theta0 : Vec.t;  (** initial joint configuration *)
}

val problem : chain:Chain.t -> target:Vec3.t -> theta0:Vec.t -> problem
(** Validates that [theta0] matches the chain's DOF. *)

val random_problem : Dadu_util.Rng.t -> Chain.t -> problem
(** Reachable target and random initial configuration, both drawn from the
    generator — the paper's per-target setup (Algorithm 1 line 1). *)

type invalid =
  | Dof_mismatch of { expected : int; got : int }
      (** [theta0] length differs from the chain's DOF *)
  | Nonfinite_target  (** NaN or infinite target coordinate *)
  | Nonfinite_theta0  (** NaN or infinite initial joint value *)

val validate : problem -> (unit, invalid) result
(** Typed pre-flight check for serving layers: a malformed problem is a
    client error to report, not an exception to let escape a worker
    domain.  The record type is concrete, so problems built by hand can
    bypass the {!problem} constructor's DOF check — [validate] re-checks
    everything. *)

val pp_invalid : Format.formatter -> invalid -> unit

type guard = {
  explode_factor : float;
      (** abort once the error exceeds this multiple of the initial
          error (floored at [accuracy], so a lucky near-zero start does
          not make the threshold impossible) … *)
  explode_patience : int;
      (** … for this many {e consecutive} iterations — one bad
          linesearch overshoot is forgiven, a trend is not *)
}

val default_guard : guard
(** [{explode_factor = 1e3; explode_patience = 10}] — generous enough
    that no healthy solver run in the test suite ever trips it. *)

type config = {
  accuracy : float;  (** position tolerance in meters; paper: 1e-2 *)
  max_iterations : int;  (** iteration cap; paper: 10_000 *)
  stall_iterations : int option;
      (** early stop after this many non-improving iterations; [None]
          reproduces the paper exactly *)
  guard : guard option;
      (** divergence guard: abort with {!Diverged} on a non-finite θ or
          error, or on the error-explosion rule above, instead of
          burning the remaining iteration budget.  [None] (the default)
          leaves every trace bit-identical to the unguarded driver —
          paper experiments never set it. *)
}

val default_config : config
(** [{accuracy = 1e-2; max_iterations = 10_000; stall_iterations = None;
    guard = None}] — the paper's §6.1 accuracy constraint. *)

type status =
  | Converged
  | Max_iterations
  | Stalled
  | Diverged
      (** the divergence guard fired: a non-finite configuration/error,
          or the error stayed exploded past the guard's threshold for
          its full patience.  Only produced when [config.guard] is set. *)

type result = {
  theta : Vec.t;  (** final joint configuration *)
  error : float;  (** final [‖X_t − f(θ)‖] *)
  iterations : int;  (** outer iterations executed *)
  speculations : int;  (** candidates evaluated per iteration (1 = serial) *)
  status : status;
  svd_sweeps : int;  (** total Jacobi sweeps (pseudoinverse methods only) *)
}

val work : result -> int
(** [speculations × iterations] — the paper's Figure 5(b) computation-load
    metric. *)

val error_of : ?scratch:Fk.scratch -> Chain.t -> Vec3.t -> Vec.t -> float
(** [‖target − f(θ)‖].  With [scratch] (typically the domain's
    {!Workspace.local} FK scratch, already compiled for the chain) FK
    runs in it instead of a fresh one; the value is the same bits. *)

val string_of_status : status -> string
(** ["converged"], ["max-iterations"], ["stalled"] or ["diverged"]: the
    status as replies and reports print it. *)

val pp_status : Format.formatter -> status -> unit

val pp_result : Format.formatter -> result -> unit

type solver = ?config:config -> problem -> result
(** Common solver shape; every module in this library exports one. *)
