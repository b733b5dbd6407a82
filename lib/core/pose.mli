open Dadu_linalg
open Dadu_kinematics

(** Full-pose (position + orientation) inverse kinematics — the extension
    of the paper's position-only task to the 6-DOF end-effector poses real
    manipulation needs.

    The task error is a weighted 6-vector twist: translation error stacked
    on [rotation_weight ×] the axis-angle vector of [R_target·R(θ)ᵀ].  All
    three solvers share the same termination contract (both error
    components under their tolerances), so iteration counts are
    comparable, mirroring the position-only suite. *)

type target = { position : Vec3.t; orientation : Rot.t }

val target_of_mat4 : Mat4.t -> target

type problem = { chain : Chain.t; target : target; theta0 : Vec.t }

val problem : chain:Chain.t -> target:target -> theta0:Vec.t -> problem

val random_problem : Dadu_util.Rng.t -> Chain.t -> problem
(** Target drawn as the FK pose of a random configuration (guaranteed
    feasible), start configuration random. *)

type config = {
  position_accuracy : float;  (** meters; default 1e-2 *)
  orientation_accuracy : float;  (** radians; default 1e-2 *)
  rotation_weight : float;
      (** meters-per-radian exchange rate in the stacked error; default
          0.5 (a 1-rad orientation error counts like 0.5 m) *)
  max_iterations : int;  (** default 10_000 *)
}

val default_config : config

type status = Converged | Max_iterations

type result = {
  theta : Vec.t;
  position_error : float;  (** final translation error, meters *)
  orientation_error : float;  (** final geodesic rotation error, radians *)
  iterations : int;
  speculations : int;
  status : status;
}

val error_twist : rotation_weight:float -> Chain.t -> target -> Vec.t -> Vec.t
(** The 6-dimensional weighted task error at a configuration
    ([e_pos ; w·e_rot]). *)

val solve_dls : ?lambda:float -> ?config:config -> problem -> result
(** Damped least squares on the full 6×N Jacobian ([lambda] default
    0.1). *)

val solve_jt : ?config:config -> problem -> result
(** Jacobian transpose with the Buss scalar generalized to the weighted
    6-D error. *)

val solve_quick : ?speculations:int -> ?config:config -> problem -> result
(** Quick-IK on the pose task: speculative search over the transpose step
    scalar, candidates ranked by the weighted 6-D error of their actual
    FK pose.  [speculations] default 64. *)
