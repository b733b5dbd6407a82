(** Quick-IK: speculative parallel search over the transpose step size
    (paper §4, Algorithm 1).

    Each iteration computes the shared serial part — Jacobian, base update
    [Δθ_base = Jᵀe], base scalar [α_base] (Eq. 8) — then evaluates [Max]
    candidate steps [α_k = (k/Max)·α_base] (Eq. 9), keeping the candidate
    whose FK lands closest to the target.  Candidate evaluation runs on
    the filtered link-major position-only sweep
    ({!Dadu_kinematics.Fk.speculate_argmin}): one backward tool→base
    sweep folds every candidate's end-effector position and squared target
    error with a vectorized [sincos], so no candidate ever pays for the
    full pose product, a θ buffer, a [sqrt] or a libm call, and a
    rounding-error bound proves the winner is the one the exact kernel
    ({!Dadu_kinematics.Fk.speculate_range_into}) would pick, re-scoring
    exactly on a near-tie.  The candidates are independent: IKAcc
    evaluates them in parallel on its SSUs, while software runs one
    sweep per iteration and parallelizes across requests instead. *)

type strategy =
  | Uniform  (** paper Eq. 9: [α_k = (k/Max)·α_base] over [(0, α_base]] *)
  | Log_spaced
      (** ablation: geometric spacing over the same range — denser near
          [α_base], sparser near 0 *)
  | Extended of float
      (** ablation: uniform over [(0, factor·α_base]]; [Extended 1.0] is
          {!Uniform}, [Extended 2.0] also speculates overshoot *)

val solve :
  ?speculations:int ->
  ?strategy:strategy ->
  ?on_iteration:(iter:int -> err:float -> unit) ->
  ?workspace:Workspace.t ->
  Ik.solver
(** [speculations] is the paper's [Max], default 64 (the paper's chosen
    operating point, Figure 4); must be positive.  [strategy] defaults to
    [Uniform]. *)
