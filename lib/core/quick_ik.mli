open Dadu_util

(** Quick-IK: speculative parallel search over the transpose step size
    (paper §4, Algorithm 1).

    Each iteration computes the shared serial part — Jacobian, base update
    [Δθ_base = Jᵀe], base scalar [α_base] (Eq. 8) — then evaluates [Max]
    candidate steps [α_k = (k/Max)·α_base] (Eq. 9), keeping the candidate
    whose FK lands closest to the target.  Candidate evaluation runs on
    the link-major position-only kernel
    ({!Dadu_kinematics.Fk.speculate_range_into}): one backward tool→base
    sweep folds every candidate's end-effector position and squared target
    error, so no candidate ever pays for the full pose product, a θ
    buffer, or a [sqrt].  The candidates are independent, so they
    parallelize across domains (here) or SSUs (in IKAcc). *)

type strategy =
  | Uniform  (** paper Eq. 9: [α_k = (k/Max)·α_base] over [(0, α_base]] *)
  | Log_spaced
      (** ablation: geometric spacing over the same range — denser near
          [α_base], sparser near 0 *)
  | Extended of float
      (** ablation: uniform over [(0, factor·α_base]]; [Extended 1.0] is
          {!Uniform}, [Extended 2.0] also speculates overshoot *)

type mode =
  | Sequential
  | Parallel of Domain_pool.t
      (** evaluates candidates on the pool in ~pool-size contiguous chunks
          (one kernel sweep per chunk), falling back to the sequential
          sweep when [dof × Max] is below a measured dispatch-latency
          threshold; results are bit-identical to [Sequential] in either
          case (pure candidate evaluation, deterministic minimum-error
          selection with ties broken toward smaller [k]) *)

val solve :
  ?speculations:int ->
  ?strategy:strategy ->
  ?mode:mode ->
  ?on_iteration:(iter:int -> err:float -> unit) ->
  ?workspace:Workspace.t ->
  Ik.solver
(** [speculations] is the paper's [Max], default 64 (the paper's chosen
    operating point, Figure 4); must be positive.  [strategy] defaults to
    [Uniform], [mode] to [Sequential]. *)
