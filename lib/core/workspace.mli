open Dadu_linalg
open Dadu_kinematics

(** Per-solve scratch memory for the iterative solvers.

    One workspace owns every buffer the {!Loop} driver and a solver step
    need — FK scratch, cumulative frames, the 3×dof Jacobian, error and
    update vectors, the 3×3 damped-gram system, and (for speculative
    solvers) per-candidate pools.  Steady-state iterations then run
    without minor-heap allocation.

    Ownership: a workspace must only be used by one solve at a time.
    Reuse across consecutive solves on the same thread is the intended
    pattern (and what {!local} provides); sharing one workspace between
    concurrent solves races.  Quick-IK's [Parallel] mode shares the
    candidate buffers across domains only over disjoint index ranges, and
    the FK scratch only after {!Dadu_kinematics.Fk.precompile} — the only
    cross-domain sharing allowed. *)

type scalars = { mutable err : float; mutable best_err : float }
(** All-float record (flat in memory): scalar channel between driver and
    step, so no float crosses a call boundary. *)

type t = {
  dof : int;
  fk : Fk.scratch;  (** FK ping-pong scratch *)
  frames : Mat4.t array;  (** [dof+1] cumulative transforms *)
  jac : Mat.t;  (** 3×dof position Jacobian *)
  e : Vec.t;  (** length-3 task-space error [X_t − f(θ)] *)
  tmp3 : Vec.t;  (** length-3 scratch (J·Jᵀe, damped-gram solution) *)
  dtheta : Vec.t;  (** length-dof update direction *)
  mutable theta : Vec.t;  (** current configuration (driver-owned) *)
  mutable theta_next : Vec.t;  (** next configuration (step writes here) *)
  a33 : Mat.t;  (** 3×3 damped gram [J·Jᵀ + λ²I] *)
  l33 : Mat.t;  (** 3×3 Cholesky factor scratch *)
  y3 : Vec.t;  (** length-3 forward-substitution scratch *)
  scalars : scalars;
  mutable iter : int;  (** 0-based index of the current iteration *)
  mutable cand_pos : Vec.t;
      (** speculative candidate positions, flat SoA: x at [[0, s)], y at
          [[s, 2s)], z at [[2s, 3s)] where [s = Array.length cand_err2] *)
  mutable cand_err2 : float array;  (** candidate *squared* target errors *)
  mutable coeffs : float array;  (** per-candidate step sizes *)
  mutable ladder : float array;
      (** Log-spaced geometric ladder [ratio^(Max-1-k)], hoisted out of the
          iteration (valid when [ladder_for] matches the solve's [Max]) *)
  mutable ladder_for : int;  (** speculation count [ladder] was built for *)
}

val create : dof:int -> t
(** Fresh workspace for a [dof]-joint chain (candidate pools start empty
    and grow on first speculative use). *)

val dof : t -> int

val ensure_candidates : t -> int -> unit
(** [ensure_candidates t n] grows the candidate pools to hold at least
    [n] candidates; no-op when already large enough. *)

val local : dof:int -> t
(** The calling domain's cached workspace for [dof] (created on first
    request).  Safe for the solve-at-a-time pattern; do not use for
    nested solves within one domain. *)

type pool_stats = {
  created : int;  (** workspaces built by {!local} across all domains *)
  reused : int;  (** {!local} calls served from a domain's cache *)
}

type phase = Prepare | Work
(** Which scheduler phase a {!local} call is attributed to.  The
    orchestrating domain brackets each wave phase with {!set_phase};
    phases never overlap, so one process-global flag attributes every
    domain's calls.  Code running outside a scheduler wave (direct
    solver calls, benches) counts as [Work]. *)

val set_phase : phase -> unit
(** Set the current accounting phase.  Called by the serving scheduler at
    phase boundaries; allocation-free (one atomic store). *)

val phase_stats : phase -> pool_stats
(** Process-global, cumulative accounting for {!local} calls made while
    the given phase was current — the per-phase split of {!local_stats}.
    [phase_stats Prepare] shows the workspaces the prepare phase builds
    on a pool (its fused seed-scoring sweeps borrow each domain's
    workspace FK scratch), which the work phase then
    reuses: a healthy seed-heavy loop shows [created] concentrated in
    whichever phase first touched each (domain, DOF) pair and [reused]
    growing in both.  Use deltas around a workload. *)

val local_stats : unit -> pool_stats
(** Process-global, cumulative accounting for the per-domain pools — the
    sum of {!phase_stats} over both phases; use deltas around a workload.
    A healthy steady-state serving loop shows [reused] growing and
    [created] flat at [domains × distinct DOFs].  Before the per-phase
    split this was a single undifferentiated high-water mark, which hid
    whether prepare or work built the pool. *)

val local_count : unit -> int
(** Workspaces cached on the {e calling} domain. *)
