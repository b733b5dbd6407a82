open Dadu_linalg

(** Workspace and conditioning analysis.

    The convergence rate of Jacobian-transpose IK is governed by the
    conditioning of [J·Jᵀ] over the workspace — the very property the
    evaluation chains are chosen to stress (DESIGN.md §2).  This module
    quantifies it: Yoshikawa's manipulability measure, the task-space
    condition number, and Monte-Carlo workspace statistics. *)

val manipulability : Chain.t -> Vec.t -> float
(** Yoshikawa's measure [√det(J·Jᵀ)] for the position Jacobian: 0 at
    singular configurations, larger is better-conditioned. *)

val condition_number : Chain.t -> Vec.t -> float
(** [σ_max/σ_min] of the position Jacobian; [infinity] at singularities. *)

val ellipsoid : Chain.t -> Vec.t -> (Vec3.t * float) list
(** Principal axes of the velocity manipulability ellipsoid at a
    configuration: three (unit direction, semi-axis length) pairs in
    descending length order, from the eigenstructure of [J·Jᵀ] (the
    semi-axes are the singular values of [J]).  Long axes are directions
    the end effector moves easily; a vanishing axis is a singular
    direction. *)

type stats = {
  samples : int;
  reach_max : float;  (** largest end-effector distance observed *)
  reach_p50 : float;
  extent_min : Vec3.t;  (** axis-aligned bounding box of sampled positions *)
  extent_max : Vec3.t;
  manipulability : Dadu_util.Stats.summary;
  condition : Dadu_util.Stats.summary;
      (** condition numbers, capped at [condition_cap] so singular samples
          do not swamp the summary *)
  singular_fraction : float;
      (** fraction of samples with condition number above the cap *)
}

val condition_cap : float
(** 1e6. *)

val sample : ?samples:int -> Dadu_util.Rng.t -> Chain.t -> stats
(** Monte-Carlo over {!Target.random_config} (default 1000 samples). *)
