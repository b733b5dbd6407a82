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
    concurrent solves races. *)

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
          [[s, 2s)], z at [[2s, 3s)] where [s = Array.length cand_err2].
          After Quick-IK's filtered sweep
          ({!Dadu_kinematics.Fk.speculate_argmin}) these are the fast
          sweep's values, except in a range it re-scored exactly. *)
  mutable cand_err2 : float array;
      (** candidate *squared* target errors, fast values like [cand_pos] *)
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

val local_stats : unit -> pool_stats
(** Process-global, cumulative accounting for the per-domain pools; use
    deltas around a workload.  A healthy steady-state serving loop shows
    [reused] growing and [created] flat at [domains × distinct DOFs]. *)

val local_count : unit -> int
(** Workspaces cached on the {e calling} domain. *)
