open Dadu_linalg
open Dadu_kinematics

type target = { position : Vec3.t; orientation : Rot.t }

let target_of_mat4 t = { position = Mat4.position t; orientation = Mat4.rotation t }

type problem = { chain : Chain.t; target : target; theta0 : Vec.t }

let problem ~chain ~target ~theta0 =
  Chain.check_config chain theta0;
  { chain; target; theta0 = Vec.copy theta0 }

let random_problem rng chain =
  let q = Target.random_config rng chain in
  let target = target_of_mat4 (Fk.pose chain q) in
  { chain; target; theta0 = Target.random_config rng chain }

type config = {
  position_accuracy : float;
  orientation_accuracy : float;
  rotation_weight : float;
  max_iterations : int;
}

let default_config =
  {
    position_accuracy = 1e-2;
    orientation_accuracy = 1e-2;
    rotation_weight = 0.5;
    max_iterations = 10_000;
  }

type status = Converged | Max_iterations

type result = {
  theta : Vec.t;
  position_error : float;
  orientation_error : float;
  iterations : int;
  speculations : int;
  status : status;
}

(* Rotation error as a rotation vector: axis·angle of R_target·R(θ)ᵀ, the
   rotation still needed to reach the target orientation. *)
let rotation_error_vec target_r current_r =
  let r_err = Rot.mul target_r (Rot.transpose current_r) in
  let axis, angle = Rot.to_axis_angle r_err in
  Vec3.scale angle axis

let twist_of_pose ~rotation_weight target pose =
  let e_pos = Vec3.sub target.position (Mat4.position pose) in
  let e_rot = rotation_error_vec target.orientation (Mat4.rotation pose) in
  [|
    e_pos.Vec3.x;
    e_pos.Vec3.y;
    e_pos.Vec3.z;
    rotation_weight *. e_rot.Vec3.x;
    rotation_weight *. e_rot.Vec3.y;
    rotation_weight *. e_rot.Vec3.z;
  |]

let error_twist ~rotation_weight chain target theta =
  twist_of_pose ~rotation_weight target (Fk.pose chain theta)

(* Angular rows of the 6×N Jacobian scaled by the rotation weight, so that
   J·Δθ predicts the weighted twist. *)
let weighted_jacobian ~rotation_weight chain theta =
  let j = Jacobian.full_jacobian chain theta in
  let n = Chain.dof chain in
  for row = 3 to 5 do
    for col = 0 to n - 1 do
      Mat.set j row col (rotation_weight *. Mat.get j row col)
    done
  done;
  j

let errors_of_twist ~rotation_weight e =
  let pos = sqrt ((e.(0) *. e.(0)) +. (e.(1) *. e.(1)) +. (e.(2) *. e.(2))) in
  let rot =
    sqrt ((e.(3) *. e.(3)) +. (e.(4) *. e.(4)) +. (e.(5) *. e.(5))) /. rotation_weight
  in
  (pos, rot)

(* Shared driver: [step] maps (theta, weighted jacobian, weighted twist)
   to the next configuration. *)
let run ~config ~speculations ~step problem =
  let { chain; target; theta0 } = problem in
  let w = config.rotation_weight in
  let rec go theta iter =
    let e = error_twist ~rotation_weight:w chain target theta in
    let pos_err, rot_err = errors_of_twist ~rotation_weight:w e in
    if pos_err < config.position_accuracy && rot_err < config.orientation_accuracy
    then
      {
        theta;
        position_error = pos_err;
        orientation_error = rot_err;
        iterations = iter;
        speculations;
        status = Converged;
      }
    else if iter >= config.max_iterations then
      {
        theta;
        position_error = pos_err;
        orientation_error = rot_err;
        iterations = iter;
        speculations;
        status = Max_iterations;
      }
    else begin
      let j = weighted_jacobian ~rotation_weight:w chain theta in
      go (step ~theta ~j ~e) (iter + 1)
    end
  in
  go (Vec.copy theta0) 0

let solve_dls ?(lambda = 0.1) ?(config = default_config) problem =
  let step ~theta ~j ~e =
    let a = Mat.gram j in
    let l2 = lambda *. lambda in
    for i = 0 to 5 do
      Mat.set a i i (Mat.get a i i +. l2)
    done;
    let y = Cholesky.solve a e in
    Vec.add theta (Mat.mul_transpose_vec j y)
  in
  run ~config ~speculations:1 ~step problem

(* Buss' scalar for a general task dimension: α = ⟨e, JJᵀe⟩/⟨JJᵀe, JJᵀe⟩. *)
let buss_alpha ~j ~e ~dtheta_base =
  let jjte = Mat.mul_vec j dtheta_base in
  let denom = Vec.norm_sq jjte in
  if denom < 1e-30 then 0. else Vec.dot e jjte /. denom

let solve_jt ?(config = default_config) problem =
  let step ~theta ~j ~e =
    let dtheta_base = Mat.mul_transpose_vec j e in
    let alpha = buss_alpha ~j ~e ~dtheta_base in
    Vec.axpy alpha dtheta_base theta
  in
  run ~config ~speculations:1 ~step problem

let solve_quick ?(speculations = 64) ?(config = default_config) problem =
  if speculations <= 0 then invalid_arg "Pose.solve_quick: speculations must be positive";
  let { chain; target; _ } = problem in
  let w = config.rotation_weight in
  let step ~theta ~j ~e =
    let dtheta_base = Mat.mul_transpose_vec j e in
    let alpha_base = buss_alpha ~j ~e ~dtheta_base in
    if alpha_base = 0. then theta
    else begin
      let best_theta = ref theta in
      let best_err = ref infinity in
      for k = 1 to speculations do
        let alpha = float_of_int k /. float_of_int speculations *. alpha_base in
        let cand = Vec.axpy alpha dtheta_base theta in
        let cand_e = error_twist ~rotation_weight:w chain target cand in
        let err = Vec.norm cand_e in
        if err < !best_err then begin
          best_err := err;
          best_theta := cand
        end
      done;
      !best_theta
    end
  in
  run ~config ~speculations ~step problem
