(* Unit and property tests for Dadu_linalg: Vec, Vec3, Mat, Rot, Mat4,
   Svd, Eigen, Cholesky. *)

open Dadu_linalg
module Rng = Dadu_util.Rng

let check_float = Alcotest.(check (float 1e-9))
let qcheck = QCheck_alcotest.to_alcotest

let small_float = QCheck.float_range (-10.) 10.

let vec_gen n = QCheck.(array_of_size (QCheck.Gen.return n) small_float)

let vec3_gen =
  QCheck.map
    (fun (x, y, z) -> Vec3.make x y z)
    QCheck.(triple small_float small_float small_float)

let nonzero_vec3_gen =
  QCheck.map
    (fun v ->
      if Vec3.norm v < 1e-6 then Vec3.make 1. 0.5 (-0.25) else v)
    vec3_gen

(* ---- Vec ---- *)

let test_vec_create () =
  let v = Vec.create 4 in
  Alcotest.(check int) "dim" 4 (Vec.dim v);
  check_float "zeros" 0. (Vec.norm v)

let test_vec_arith () =
  let x = [| 1.; 2.; 3. |] and y = [| 4.; 5.; 6. |] in
  Alcotest.(check (array (float 1e-12))) "add" [| 5.; 7.; 9. |] (Vec.add x y);
  Alcotest.(check (array (float 1e-12))) "sub" [| -3.; -3.; -3. |] (Vec.sub x y);
  Alcotest.(check (array (float 1e-12))) "scale" [| 2.; 4.; 6. |] (Vec.scale 2. x);
  Alcotest.(check (array (float 1e-12))) "neg" [| -1.; -2.; -3. |] (Vec.neg x);
  check_float "dot" 32. (Vec.dot x y);
  check_float "norm" (sqrt 14.) (Vec.norm x);
  check_float "dist" (sqrt 27.) (Vec.dist x y)

let test_vec_mismatch () =
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec.add: dimension mismatch")
    (fun () -> ignore (Vec.add [| 1. |] [| 1.; 2. |]))

let test_vec_axpy_into () =
  let dst = Vec.create 3 in
  Vec.axpy_into ~dst 2. [| 1.; 1.; 1. |] [| 3.; 4.; 5. |];
  Alcotest.(check (array (float 1e-12))) "axpy_into" [| 5.; 6.; 7. |] dst

let test_vec_add_inplace () =
  let x = [| 1.; 2. |] in
  Vec.add_inplace x [| 10.; 20. |];
  Alcotest.(check (array (float 1e-12))) "in place" [| 11.; 22. |] x

let test_vec_max_abs () =
  check_float "max abs" 7. (Vec.max_abs [| -7.; 3.; 5. |]);
  check_float "empty" 0. (Vec.max_abs [||])

let test_vec_axpy_consistent =
  QCheck.Test.make ~name:"axpy a x y = a*x + y" ~count:200
    QCheck.(triple small_float (vec_gen 5) (vec_gen 5))
    (fun (a, x, y) ->
      Vec.approx_equal ~tol:1e-9 (Vec.axpy a x y) (Vec.add (Vec.scale a x) y))

let test_vec_cauchy_schwarz =
  QCheck.Test.make ~name:"Cauchy-Schwarz" ~count:200
    QCheck.(pair (vec_gen 6) (vec_gen 6))
    (fun (x, y) -> Float.abs (Vec.dot x y) <= (Vec.norm x *. Vec.norm y) +. 1e-6)

let test_vec_triangle =
  QCheck.Test.make ~name:"triangle inequality" ~count:200
    QCheck.(pair (vec_gen 6) (vec_gen 6))
    (fun (x, y) -> Vec.norm (Vec.add x y) <= Vec.norm x +. Vec.norm y +. 1e-6)

(* ---- Vec3 ---- *)

let test_vec3_cross_basis () =
  Alcotest.(check bool) "ex x ey = ez" true
    (Vec3.approx_equal (Vec3.cross Vec3.ex Vec3.ey) Vec3.ez)

let test_vec3_normalize () =
  let v = Vec3.normalize (Vec3.make 3. 4. 0.) in
  check_float "unit" 1. (Vec3.norm v);
  Alcotest.check_raises "zero vector" (Invalid_argument "Vec3.normalize: zero vector")
    (fun () -> ignore (Vec3.normalize Vec3.zero))

let test_vec3_lerp () =
  let a = Vec3.make 0. 0. 0. and b = Vec3.make 2. 4. 6. in
  Alcotest.(check bool) "t=0" true (Vec3.approx_equal (Vec3.lerp a b 0.) a);
  Alcotest.(check bool) "t=1" true (Vec3.approx_equal (Vec3.lerp a b 1.) b);
  Alcotest.(check bool) "t=.5" true
    (Vec3.approx_equal (Vec3.lerp a b 0.5) (Vec3.make 1. 2. 3.))

let test_vec3_of_vec () =
  Alcotest.(check bool) "round trip" true
    (Vec3.approx_equal (Vec3.of_vec [| 1.; 2.; 3. |]) (Vec3.make 1. 2. 3.));
  Alcotest.check_raises "wrong length" (Invalid_argument "Vec3.of_vec: expected length 3")
    (fun () -> ignore (Vec3.of_vec [| 1. |]))

let test_vec3_cross_antisym =
  QCheck.Test.make ~name:"cross anti-commutes" ~count:200 (QCheck.pair vec3_gen vec3_gen)
    (fun (a, b) ->
      Vec3.approx_equal ~tol:1e-9 (Vec3.cross a b) (Vec3.neg (Vec3.cross b a)))

let test_vec3_cross_orthogonal =
  QCheck.Test.make ~name:"cross orthogonal to both" ~count:200
    (QCheck.pair vec3_gen vec3_gen) (fun (a, b) ->
      let c = Vec3.cross a b in
      Float.abs (Vec3.dot c a) < 1e-6 && Float.abs (Vec3.dot c b) < 1e-6)

(* ---- Mat ---- *)

let mat_of l = Mat.of_arrays (Array.of_list (List.map Array.of_list l))

let test_mat_identity_mul () =
  let a = mat_of [ [ 1.; 2. ]; [ 3.; 4. ]; [ 5.; 6. ] ] in
  Alcotest.(check bool) "I*A = A" true (Mat.approx_equal (Mat.mul (Mat.identity 3) a) a);
  Alcotest.(check bool) "A*I = A" true (Mat.approx_equal (Mat.mul a (Mat.identity 2)) a)

let test_mat_mul_known () =
  let a = mat_of [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  let b = mat_of [ [ 5.; 6. ]; [ 7.; 8. ] ] in
  let expected = mat_of [ [ 19.; 22. ]; [ 43.; 50. ] ] in
  Alcotest.(check bool) "2x2 product" true (Mat.approx_equal (Mat.mul a b) expected)

let test_mat_transpose_involution () =
  let a = mat_of [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ] in
  Alcotest.(check bool) "(A^T)^T = A" true
    (Mat.approx_equal (Mat.transpose (Mat.transpose a)) a)

let test_mat_mul_vec () =
  let a = mat_of [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  Alcotest.(check (array (float 1e-12))) "A x" [| 5.; 11. |] (Mat.mul_vec a [| 1.; 2. |])

let test_mat_mul_transpose_vec () =
  let a = mat_of [ [ 1.; 2. ]; [ 3.; 4. ]; [ 5.; 6. ] ] in
  let x = [| 1.; 1.; 1. |] in
  Alcotest.(check (array (float 1e-12))) "A^T x" (Mat.mul_vec (Mat.transpose a) x)
    (Mat.mul_transpose_vec a x)

let test_mat_gram () =
  let a = mat_of [ [ 1.; 0.; 2. ]; [ 0.; 3.; 4. ] ] in
  let g = Mat.gram a in
  Alcotest.(check bool) "gram = A A^T" true
    (Mat.approx_equal g (Mat.mul a (Mat.transpose a)))

let test_mat_row_col () =
  let a = mat_of [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  Alcotest.(check (array (float 1e-12))) "row" [| 3.; 4. |] (Mat.row a 1);
  Alcotest.(check (array (float 1e-12))) "col" [| 2.; 4. |] (Mat.col a 1);
  Mat.set_col a 0 [| 9.; 8. |];
  Alcotest.(check (array (float 1e-12))) "set_col" [| 9.; 8. |] (Mat.col a 0)

let test_mat_dims_mismatch () =
  Alcotest.check_raises "mul mismatch" (Invalid_argument "Mat.mul: dimension mismatch")
    (fun () -> ignore (Mat.mul (Mat.create 2 3) (Mat.create 2 3)))

let test_mat_frobenius () =
  check_float "frobenius" (sqrt 30.) (Mat.frobenius (mat_of [ [ 1.; 2. ]; [ 3.; 4. ] ]))

let random_mat rng rows cols =
  Mat.init rows cols (fun _ _ -> Rng.uniform rng (-5.) 5.)

let test_mat_mul_assoc () =
  let rng = Rng.create 42 in
  for _ = 1 to 20 do
    let a = random_mat rng 3 4 and b = random_mat rng 4 2 and c = random_mat rng 2 5 in
    Alcotest.(check bool) "(AB)C = A(BC)" true
      (Mat.approx_equal ~tol:1e-8 (Mat.mul (Mat.mul a b) c) (Mat.mul a (Mat.mul b c)))
  done

(* ---- Rot ---- *)

let angle_gen = QCheck.float_range (-3.1) 3.1

let test_rot_axes_orthonormal () =
  List.iter
    (fun r -> Alcotest.(check bool) "orthonormal" true (Rot.is_orthonormal ~tol:1e-9 r))
    [ Rot.rot_x 0.3; Rot.rot_y (-1.2); Rot.rot_z 2.5 ]

let test_rot_rodrigues_matches_rot_z () =
  let angle = 0.7 in
  Alcotest.(check bool) "axis-angle about z = rot_z" true
    (Rot.approx_equal ~tol:1e-12 (Rot.of_axis_angle Vec3.ez angle) (Rot.rot_z angle))

let test_rot_apply_preserves_norm =
  QCheck.Test.make ~name:"rotation preserves norm" ~count:200
    (QCheck.pair angle_gen vec3_gen) (fun (a, v) ->
      let r = Rot.of_axis_angle (Vec3.make 1. 2. 3.) a in
      Float.abs (Vec3.norm (Rot.apply r v) -. Vec3.norm v) < 1e-7)

let test_rot_axis_angle_roundtrip =
  QCheck.Test.make ~name:"axis-angle round trip" ~count:200
    (QCheck.pair nonzero_vec3_gen (QCheck.float_range 0.05 3.0)) (fun (axis, angle) ->
      let r = Rot.of_axis_angle axis angle in
      let axis', angle' = Rot.to_axis_angle r in
      let r' = Rot.of_axis_angle axis' angle' in
      Rot.approx_equal ~tol:1e-6 r r')

let test_rot_identity_axis_angle () =
  let _, angle = Rot.to_axis_angle (Rot.identity ()) in
  check_float "identity angle" 0. angle

let test_rot_near_pi () =
  let axis = Vec3.normalize (Vec3.make 1. 1. 0.) in
  let r = Rot.of_axis_angle axis Float.pi in
  let axis', angle' = Rot.to_axis_angle r in
  Alcotest.(check (float 1e-4)) "angle pi" Float.pi angle';
  let same = Vec3.approx_equal ~tol:1e-4 axis' axis in
  let flipped = Vec3.approx_equal ~tol:1e-4 axis' (Vec3.neg axis) in
  Alcotest.(check bool) "axis recovered up to sign" true (same || flipped)

let test_rot_angle_between () =
  let a = Rot.rot_z 0.4 and b = Rot.rot_z 1.0 in
  Alcotest.(check (float 1e-9)) "geodesic" 0.6 (Rot.angle_between a b)

let test_rot_rpy_roundtrip =
  QCheck.Test.make ~name:"rpy round trip (away from gimbal lock)" ~count:200
    QCheck.(
      triple (float_range (-3.) 3.) (float_range (-1.4) 1.4) (float_range (-3.) 3.))
    (fun (roll, pitch, yaw) ->
      let r = Rot.rpy ~roll ~pitch ~yaw in
      let roll', pitch', yaw' = Rot.to_rpy r in
      Rot.approx_equal ~tol:1e-9 r (Rot.rpy ~roll:roll' ~pitch:pitch' ~yaw:yaw'))

let test_rot_rpy_axes () =
  Alcotest.(check bool) "pure yaw = rot_z" true
    (Rot.approx_equal ~tol:1e-12 (Rot.rpy ~roll:0. ~pitch:0. ~yaw:0.7) (Rot.rot_z 0.7));
  Alcotest.(check bool) "pure roll = rot_x" true
    (Rot.approx_equal ~tol:1e-12 (Rot.rpy ~roll:0.4 ~pitch:0. ~yaw:0.) (Rot.rot_x 0.4))

let test_rot_rpy_gimbal () =
  let r = Rot.rpy ~roll:0.3 ~pitch:(Float.pi /. 2.) ~yaw:0.5 in
  let roll', pitch', yaw' = Rot.to_rpy r in
  Alcotest.(check bool) "reconstructs at lock" true
    (Rot.approx_equal ~tol:1e-9 r (Rot.rpy ~roll:roll' ~pitch:pitch' ~yaw:yaw'))

(* ---- Mat4 ---- *)

let rigid_gen =
  QCheck.map
    (fun ((axis, angle), p) -> Mat4.of_rot_trans (Rot.of_axis_angle axis angle) p)
    (QCheck.pair (QCheck.pair nonzero_vec3_gen (QCheck.float_range 0.05 3.0)) vec3_gen)

let test_mat4_identity_point () =
  let p = Vec3.make 1. 2. 3. in
  Alcotest.(check bool) "identity transform" true
    (Vec3.approx_equal (Mat4.transform_point (Mat4.identity ()) p) p)

let test_mat4_translation () =
  let t = Mat4.translation (Vec3.make 1. 0. (-2.)) in
  Alcotest.(check bool) "translated" true
    (Vec3.approx_equal (Mat4.transform_point t (Vec3.make 0. 1. 0.)) (Vec3.make 1. 1. (-2.)))

let test_mat4_compose =
  QCheck.Test.make ~name:"(A·B) p = A (B p)" ~count:200
    (QCheck.triple rigid_gen rigid_gen vec3_gen) (fun (a, b, p) ->
      Vec3.approx_equal ~tol:1e-6
        (Mat4.transform_point (Mat4.mul a b) p)
        (Mat4.transform_point a (Mat4.transform_point b p)))

let test_mat4_inverse_rigid =
  QCheck.Test.make ~name:"T · T⁻¹ = identity" ~count:200 rigid_gen (fun t ->
      Mat4.approx_equal ~tol:1e-7 (Mat4.mul t (Mat4.inverse_rigid t)) (Mat4.identity ()))

let test_mat4_is_rigid =
  QCheck.Test.make ~name:"rigid transforms detected" ~count:200 rigid_gen (fun t ->
      Mat4.is_rigid ~tol:1e-7 t)

let test_mat4_not_rigid () =
  let t = Mat4.identity () in
  Mat4.set t 0 0 2.;
  Alcotest.(check bool) "scaled not rigid" false (Mat4.is_rigid t)

let test_mat4_axes () =
  let t = Mat4.rot_z (Float.pi /. 2.) in
  Alcotest.(check bool) "x-axis rotated to y" true
    (Vec3.approx_equal ~tol:1e-12 (Mat4.x_axis t) Vec3.ey);
  Alcotest.(check bool) "z-axis unchanged" true
    (Vec3.approx_equal ~tol:1e-12 (Mat4.z_axis t) Vec3.ez)

let test_mat4_position () =
  let t = Mat4.translation (Vec3.make 4. 5. 6.) in
  Alcotest.(check bool) "position column" true
    (Vec3.approx_equal (Mat4.position t) (Vec3.make 4. 5. 6.))

let test_mat4_transform_dir () =
  let t = Mat4.mul (Mat4.translation (Vec3.make 9. 9. 9.)) (Mat4.rot_z (Float.pi /. 2.)) in
  Alcotest.(check bool) "direction ignores translation" true
    (Vec3.approx_equal ~tol:1e-12 (Mat4.transform_dir t Vec3.ex) Vec3.ey)

(* ---- Svd ---- *)

let random_mat_gen rows cols =
  QCheck.map
    (fun seed ->
      let rng = Rng.create seed in
      random_mat rng rows cols)
    QCheck.(int_range 0 100_000)

let svd_reconstructs name rows cols =
  QCheck.Test.make ~name ~count:100 (random_mat_gen rows cols) (fun a ->
      let svd = Svd.decompose a in
      Mat.approx_equal ~tol:1e-7 (Svd.reconstruct svd) a)

let test_svd_reconstruct_tall = svd_reconstructs "SVD reconstructs 20x3" 20 3
let test_svd_reconstruct_wide = svd_reconstructs "SVD reconstructs 3x20" 3 20
let test_svd_reconstruct_square = svd_reconstructs "SVD reconstructs 5x5" 5 5

let test_svd_descending =
  QCheck.Test.make ~name:"singular values descending, non-negative" ~count:100
    (random_mat_gen 8 5) (fun a ->
      let { Svd.sigma; _ } = Svd.decompose a in
      let ok = ref (Array.for_all (fun s -> s >= 0.) sigma) in
      for i = 1 to Array.length sigma - 1 do
        if sigma.(i) > sigma.(i - 1) +. 1e-12 then ok := false
      done;
      !ok)

let orthonormal_columns ?(tol = 1e-7) m sigma =
  let _, r = Mat.dims m in
  let ok = ref true in
  for i = 0 to r - 1 do
    for j = 0 to r - 1 do
      if sigma.(i) > 1e-9 && sigma.(j) > 1e-9 then begin
        let d = Vec.dot (Mat.col m i) (Mat.col m j) in
        let expected = if i = j then 1. else 0. in
        if Float.abs (d -. expected) > tol then ok := false
      end
    done
  done;
  !ok

let test_svd_orthonormal =
  QCheck.Test.make ~name:"U and V have orthonormal columns" ~count:100
    (random_mat_gen 10 4) (fun a ->
      let { Svd.u; v; sigma; _ } = Svd.decompose a in
      orthonormal_columns u sigma && orthonormal_columns v sigma)

let test_svd_rank_deficient () =
  (* rank-1: outer product *)
  let a = Mat.init 6 4 (fun i j -> float_of_int ((i + 1) * (j + 1))) in
  let svd = Svd.decompose a in
  Alcotest.(check int) "rank 1" 1 (Svd.rank ~rcond:1e-9 svd)

let test_svd_known_diagonal () =
  let a = mat_of [ [ 3.; 0. ]; [ 0.; 4. ] ] in
  let { Svd.sigma; _ } = Svd.decompose a in
  check_float "largest" 4. sigma.(0);
  check_float "smallest" 3. sigma.(1)

let test_pinv_moore_penrose =
  QCheck.Test.make ~name:"A A⁺ A = A" ~count:60 (random_mat_gen 3 7) (fun a ->
      let ap = Svd.pinv a in
      Mat.approx_equal ~tol:1e-6 (Mat.mul (Mat.mul a ap) a) a)

let test_pinv_second_condition =
  QCheck.Test.make ~name:"A⁺ A A⁺ = A⁺" ~count:60 (random_mat_gen 3 7) (fun a ->
      let ap = Svd.pinv a in
      Mat.approx_equal ~tol:1e-6 (Mat.mul (Mat.mul ap a) ap) ap)

let test_apply_pinv_matches_materialized =
  QCheck.Test.make ~name:"apply_pinv = pinv · e" ~count:60 (random_mat_gen 3 6) (fun a ->
      let svd = Svd.decompose a in
      let e = [| 1.; -2.; 0.5 |] in
      Vec.approx_equal ~tol:1e-7 (Svd.apply_pinv svd e) (Mat.mul_vec (Svd.pinv a) e))

let test_svd_sweeps_positive () =
  let rng = Rng.create 77 in
  let a = random_mat rng 10 3 in
  let svd = Svd.decompose a in
  Alcotest.(check bool) "at least one sweep" true (svd.Svd.sweeps >= 1)

let test_svd_transpose_sigma () =
  (* singular values are transpose-invariant *)
  let rng = Rng.create 93 in
  let a = random_mat rng 6 3 in
  let s1 = (Svd.decompose a).Svd.sigma in
  let s2 = (Svd.decompose (Mat.transpose a)).Svd.sigma in
  Array.iteri
    (fun i s -> Alcotest.(check (float 1e-8)) "sigma equal" s s2.(i))
    s1

let test_rot_not_orthonormal () =
  let r = Rot.identity () in
  r.(0) <- 2.;
  Alcotest.(check bool) "scaled matrix rejected" false (Rot.is_orthonormal r)

(* ---- Eigen ---- *)

let random_symmetric rng n =
  let b = random_mat rng n n in
  Mat.add b (Mat.transpose b)

let test_eigen_reconstruct =
  QCheck.Test.make ~name:"eigendecomposition reconstructs" ~count:100
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 6 in
      let a = random_symmetric rng n in
      let e = Eigen.decompose a in
      Mat.approx_equal ~tol:1e-7 (Eigen.reconstruct e) a)

let test_eigen_pairs =
  QCheck.Test.make ~name:"A v = lambda v for every pair" ~count:100
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 5 in
      let a = random_symmetric rng n in
      let e = Eigen.decompose a in
      let ok = ref true in
      for k = 0 to n - 1 do
        let v = Mat.col e.Eigen.vectors k in
        let av = Mat.mul_vec a v in
        let lv = Vec.scale e.Eigen.values.(k) v in
        if not (Vec.approx_equal ~tol:1e-7 av lv) then ok := false
      done;
      !ok)

let test_eigen_descending_and_orthonormal () =
  let rng = Rng.create 91 in
  let a = random_symmetric rng 6 in
  let e = Eigen.decompose a in
  for k = 1 to 5 do
    Alcotest.(check bool) "descending" true
      (e.Eigen.values.(k) <= e.Eigen.values.(k - 1) +. 1e-12)
  done;
  let vtv = Mat.mul (Mat.transpose e.Eigen.vectors) e.Eigen.vectors in
  Alcotest.(check bool) "orthonormal" true
    (Mat.approx_equal ~tol:1e-8 vtv (Mat.identity 6))

let test_eigen_invariants =
  QCheck.Test.make ~name:"trace = sum of eigenvalues" ~count:100
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 5 in
      let a = random_symmetric rng n in
      let e = Eigen.decompose a in
      let trace = ref 0. in
      for i = 0 to n - 1 do
        trace := !trace +. Mat.get a i i
      done;
      Float.abs (!trace -. Array.fold_left ( +. ) 0. e.Eigen.values)
      < 1e-8 *. Float.max 1. (Float.abs !trace))

let test_eigen_matches_svd () =
  (* eigenvalues of AᵀA = squared singular values of A *)
  let rng = Rng.create 92 in
  let a = random_mat rng 7 4 in
  let svd = Svd.decompose a in
  let eig = Eigen.decompose (Mat.mul (Mat.transpose a) a) in
  Array.iteri
    (fun k s ->
      Alcotest.(check bool)
        (Printf.sprintf "sigma_%d^2 = lambda_%d" k k)
        true
        (Float.abs ((s *. s) -. eig.Eigen.values.(k)) < 1e-7 *. Float.max 1. (s *. s)))
    svd.Svd.sigma

let test_eigen_diagonal () =
  let a = mat_of [ [ 3.; 0. ]; [ 0.; 7. ] ] in
  let e = Eigen.decompose a in
  check_float "largest" 7. e.Eigen.values.(0);
  check_float "smallest" 3. e.Eigen.values.(1)

let test_eigen_rejects_asymmetric () =
  Alcotest.(check bool) "asymmetric rejected" true
    (try
       ignore (Eigen.decompose (mat_of [ [ 1.; 2. ]; [ 3.; 4. ] ]));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-square rejected" true
    (try
       ignore (Eigen.decompose (Mat.create 2 3));
       false
     with Invalid_argument _ -> true)

(* ---- Cholesky ---- *)

let random_spd rng n =
  let b = random_mat rng n n in
  let a = Mat.mul (Mat.transpose b) b in
  for i = 0 to n - 1 do
    Mat.set a i i (Mat.get a i i +. 0.5)
  done;
  a

let test_cholesky_reconstruct () =
  let rng = Rng.create 5 in
  for _ = 1 to 30 do
    let a = random_spd rng 5 in
    let l = Cholesky.factorize a in
    Alcotest.(check bool) "L L^T = A" true
      (Mat.approx_equal ~tol:1e-7 (Mat.mul l (Mat.transpose l)) a)
  done

let test_cholesky_lower_triangular () =
  let rng = Rng.create 6 in
  let a = random_spd rng 4 in
  let l = Cholesky.factorize a in
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      check_float "upper part zero" 0. (Mat.get l i j)
    done
  done

let test_cholesky_solve () =
  let rng = Rng.create 7 in
  for _ = 1 to 30 do
    let a = random_spd rng 6 in
    let x_true = Array.init 6 (fun i -> float_of_int i -. 2.5) in
    let b = Mat.mul_vec a x_true in
    let x = Cholesky.solve a b in
    Alcotest.(check bool) "solve recovers x" true (Vec.approx_equal ~tol:1e-6 x x_true)
  done

let test_cholesky_inverse () =
  let rng = Rng.create 8 in
  let a = random_spd rng 4 in
  let inv = Cholesky.inverse a in
  Alcotest.(check bool) "A A⁻¹ = I" true
    (Mat.approx_equal ~tol:1e-7 (Mat.mul a inv) (Mat.identity 4))

let test_cholesky_not_spd () =
  let a = mat_of [ [ 1.; 2. ]; [ 2.; 1. ] ] in
  Alcotest.check_raises "indefinite rejected" Cholesky.Not_positive_definite (fun () ->
      ignore (Cholesky.factorize a))

let test_cholesky_not_square () =
  Alcotest.check_raises "non-square rejected"
    (Invalid_argument "Cholesky.factorize: not square") (fun () ->
      ignore (Cholesky.factorize (Mat.create 2 3)))

(* ---- differential tests: in-place primitives vs allocating twins ----

   The zero-allocation kernels promise results bit-identical to the
   historical allocating paths (same products, same association order).
   These properties pin that promise: each [_into] primitive is compared
   against its allocating twin with [Int64.bits_of_float] equality —
   tolerances would hide an association-order drift that the solver
   equivalence pins downstream depend on. *)

let bits_equal name expected actual =
  let n = Array.length expected in
  if Array.length actual <> n then Alcotest.failf "%s: length mismatch" name;
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float actual.(i) then
        Alcotest.failf "%s: component %d differs: %h vs %h" name i e actual.(i))
    expected

let mat_gen rows cols =
  QCheck.map
    (fun data -> { Mat.rows; cols; data })
    (vec_gen (rows * cols))

let test_vec_into_differential =
  QCheck.Test.make ~name:"Vec *_into = allocating twins (bits)" ~count:200
    QCheck.(triple small_float (vec_gen 7) (vec_gen 7))
    (fun (a, x, y) ->
      let dst = Vec.create 7 in
      Vec.sub_into ~dst x y;
      bits_equal "sub_into" (Vec.sub x y) dst;
      Vec.add_into ~dst x y;
      bits_equal "add_into" (Vec.add x y) dst;
      Vec.neg_into ~dst x;
      bits_equal "neg_into" (Vec.neg x) dst;
      Vec.scale_into ~dst a x;
      bits_equal "scale_into" (Vec.scale a x) dst;
      Vec.axpy_into ~dst a x y;
      bits_equal "axpy_into" (Vec.axpy a x y) dst;
      Vec.blit x dst;
      bits_equal "blit" x dst;
      true)

let test_mat_into_differential =
  QCheck.Test.make ~name:"Mat gemv/gram _into = allocating twins (bits)"
    ~count:200
    QCheck.(triple (mat_gen 3 9) (vec_gen 9) (vec_gen 3))
    (fun (m, x, z) ->
      let dst_r = Vec.create 3 in
      Mat.gemv_into ~dst:dst_r m x;
      bits_equal "gemv_into" (Mat.mul_vec m x) dst_r;
      let dst_c = Vec.create 9 in
      Mat.gemv_t_into ~dst:dst_c m z;
      bits_equal "gemv_t_into" (Mat.mul_transpose_vec m z) dst_c;
      let dst_g = Mat.create 3 3 in
      Mat.gram_into ~dst:dst_g m;
      bits_equal "gram_into" (Mat.gram m).Mat.data dst_g.Mat.data;
      true)

let affine_gen =
  (* random affine 4x4: arbitrary upper 3x4, fixed [0 0 0 1] bottom row *)
  QCheck.map
    (fun top ->
      let m = Array.make 16 0. in
      Array.blit top 0 m 0 12;
      m.(15) <- 1.;
      m)
    (vec_gen 12)

let test_mat4_mul_into_differential =
  QCheck.Test.make ~name:"Mat4 mul_into = mul (bits)" ~count:200
    QCheck.(pair (vec_gen 16) (vec_gen 16))
    (fun (a, b) ->
      let dst = Mat4.identity () in
      Mat4.mul_into ~dst a b;
      bits_equal "mul_into" (Mat4.mul a b) dst;
      true)

(* The affine fast path skips products against the structural zeros of the
   bottom row, so components can differ from the general product only in
   the sign of a zero: plain float equality ([=]) treats +0. and -0. as
   equal, which is exactly the intended tolerance. *)
let test_mat4_mul_affine_differential =
  QCheck.Test.make ~name:"Mat4 mul_affine_into = mul on affine inputs"
    ~count:200
    QCheck.(pair affine_gen affine_gen)
    (fun (a, b) ->
      let dst = Mat4.identity () in
      Mat4.mul_affine_into ~dst a b;
      let expected = Mat4.mul a b in
      Array.iteri
        (fun i e ->
          if not (e = dst.(i)) then
            Alcotest.failf "mul_affine_into: component %d differs: %h vs %h" i e
              dst.(i))
        expected;
      true)

let test_mat4_identity_into () =
  let m = Array.init 16 (fun i -> float_of_int i) in
  Mat4.identity_into m;
  bits_equal "identity_into" (Mat4.identity ()) m;
  let dst = Array.make 16 nan in
  Mat4.blit m dst;
  bits_equal "Mat4.blit" m dst

let spd_gen =
  (* J·Jᵀ + I is symmetric positive definite for any 3×9 J *)
  QCheck.map
    (fun j ->
      let g = Mat.gram j in
      for i = 0 to 2 do
        Mat.set g i i (Mat.get g i i +. 1.)
      done;
      g)
    (mat_gen 3 9)

let test_cholesky_solve_into_differential =
  QCheck.Test.make ~name:"Cholesky solve_into = solve (bits)" ~count:200
    QCheck.(pair spd_gen (vec_gen 3))
    (fun (a, b) ->
      let l = Mat.create 3 3 and y = Vec.create 3 and dst = Vec.create 3 in
      Cholesky.solve_into ~l ~y ~dst a b;
      bits_equal "solve_into" (Cholesky.solve a b) dst;
      (* reusing the same factorization buffers must not change results *)
      let dst2 = Vec.create 3 in
      Cholesky.solve_into ~l ~y ~dst:dst2 a b;
      bits_equal "solve_into reuse" dst dst2;
      true)

let () =
  Alcotest.run "dadu_linalg"
    [
      ( "into-differential",
        [
          qcheck test_vec_into_differential;
          qcheck test_mat_into_differential;
          qcheck test_mat4_mul_into_differential;
          qcheck test_mat4_mul_affine_differential;
          Alcotest.test_case "identity_into/blit" `Quick test_mat4_identity_into;
          qcheck test_cholesky_solve_into_differential;
        ] );
      ( "vec",
        [
          Alcotest.test_case "create" `Quick test_vec_create;
          Alcotest.test_case "arithmetic" `Quick test_vec_arith;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_mismatch;
          Alcotest.test_case "axpy_into" `Quick test_vec_axpy_into;
          Alcotest.test_case "add_inplace" `Quick test_vec_add_inplace;
          Alcotest.test_case "max_abs" `Quick test_vec_max_abs;
          qcheck test_vec_axpy_consistent;
          qcheck test_vec_cauchy_schwarz;
          qcheck test_vec_triangle;
        ] );
      ( "vec3",
        [
          Alcotest.test_case "cross basis" `Quick test_vec3_cross_basis;
          Alcotest.test_case "normalize" `Quick test_vec3_normalize;
          Alcotest.test_case "lerp" `Quick test_vec3_lerp;
          Alcotest.test_case "of_vec" `Quick test_vec3_of_vec;
          qcheck test_vec3_cross_antisym;
          qcheck test_vec3_cross_orthogonal;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity mul" `Quick test_mat_identity_mul;
          Alcotest.test_case "known product" `Quick test_mat_mul_known;
          Alcotest.test_case "transpose involution" `Quick test_mat_transpose_involution;
          Alcotest.test_case "mul_vec" `Quick test_mat_mul_vec;
          Alcotest.test_case "mul_transpose_vec" `Quick test_mat_mul_transpose_vec;
          Alcotest.test_case "gram" `Quick test_mat_gram;
          Alcotest.test_case "row/col/set_col" `Quick test_mat_row_col;
          Alcotest.test_case "dims mismatch" `Quick test_mat_dims_mismatch;
          Alcotest.test_case "frobenius" `Quick test_mat_frobenius;
          Alcotest.test_case "mul associativity" `Quick test_mat_mul_assoc;
        ] );
      ( "rot",
        [
          Alcotest.test_case "axes orthonormal" `Quick test_rot_axes_orthonormal;
          Alcotest.test_case "rodrigues = rot_z" `Quick test_rot_rodrigues_matches_rot_z;
          Alcotest.test_case "identity axis-angle" `Quick test_rot_identity_axis_angle;
          Alcotest.test_case "near-pi recovery" `Quick test_rot_near_pi;
          Alcotest.test_case "angle_between" `Quick test_rot_angle_between;
          qcheck test_rot_apply_preserves_norm;
          qcheck test_rot_axis_angle_roundtrip;
          qcheck test_rot_rpy_roundtrip;
          Alcotest.test_case "rpy axes" `Quick test_rot_rpy_axes;
          Alcotest.test_case "rpy gimbal lock" `Quick test_rot_rpy_gimbal;
          Alcotest.test_case "not orthonormal" `Quick test_rot_not_orthonormal;
        ] );
      ( "mat4",
        [
          Alcotest.test_case "identity point" `Quick test_mat4_identity_point;
          Alcotest.test_case "translation" `Quick test_mat4_translation;
          Alcotest.test_case "not rigid" `Quick test_mat4_not_rigid;
          Alcotest.test_case "axes" `Quick test_mat4_axes;
          Alcotest.test_case "position" `Quick test_mat4_position;
          Alcotest.test_case "transform_dir" `Quick test_mat4_transform_dir;
          qcheck test_mat4_compose;
          qcheck test_mat4_inverse_rigid;
          qcheck test_mat4_is_rigid;
        ] );
      ( "svd",
        [
          qcheck test_svd_reconstruct_tall;
          qcheck test_svd_reconstruct_wide;
          qcheck test_svd_reconstruct_square;
          qcheck test_svd_descending;
          qcheck test_svd_orthonormal;
          Alcotest.test_case "rank deficient" `Quick test_svd_rank_deficient;
          Alcotest.test_case "known diagonal" `Quick test_svd_known_diagonal;
          qcheck test_pinv_moore_penrose;
          qcheck test_pinv_second_condition;
          qcheck test_apply_pinv_matches_materialized;
          Alcotest.test_case "sweeps recorded" `Quick test_svd_sweeps_positive;
          Alcotest.test_case "transpose-invariant sigma" `Quick test_svd_transpose_sigma;
        ] );
      ( "eigen",
        [
          qcheck test_eigen_reconstruct;
          qcheck test_eigen_pairs;
          Alcotest.test_case "descending + orthonormal" `Quick
            test_eigen_descending_and_orthonormal;
          qcheck test_eigen_invariants;
          Alcotest.test_case "matches SVD" `Quick test_eigen_matches_svd;
          Alcotest.test_case "diagonal" `Quick test_eigen_diagonal;
          Alcotest.test_case "rejects bad input" `Quick test_eigen_rejects_asymmetric;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "reconstruct" `Quick test_cholesky_reconstruct;
          Alcotest.test_case "lower triangular" `Quick test_cholesky_lower_triangular;
          Alcotest.test_case "solve" `Quick test_cholesky_solve;
          Alcotest.test_case "inverse" `Quick test_cholesky_inverse;
          Alcotest.test_case "not SPD" `Quick test_cholesky_not_spd;
          Alcotest.test_case "not square" `Quick test_cholesky_not_square;
        ] );
    ]
