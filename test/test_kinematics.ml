(* Unit and property tests for Dadu_kinematics: Joint, Dh, Chain, Fk,
   Jacobian, Robots, Target, Traj. *)

open Dadu_linalg
open Dadu_kinematics
module Rng = Dadu_util.Rng

let qcheck = QCheck_alcotest.to_alcotest
let check_float = Alcotest.(check (float 1e-9))
let pi = Float.pi

(* ---- Joint ---- *)

let test_joint_clamp () =
  let j = Joint.revolute ~lower:(-1.) ~upper:1. () in
  check_float "below" (-1.) (Joint.clamp j (-5.));
  check_float "inside" 0.3 (Joint.clamp j 0.3);
  check_float "above" 1. (Joint.clamp j 2.)

let test_joint_inside () =
  let j = Joint.prismatic ~lower:0. ~upper:0.5 () in
  Alcotest.(check bool) "inside" true (Joint.inside j 0.25);
  Alcotest.(check bool) "outside" false (Joint.inside j 0.75)

let test_joint_unbounded () =
  Alcotest.(check bool) "unbounded" true (Joint.unbounded (Joint.revolute ()));
  Alcotest.(check bool) "bounded" false
    (Joint.unbounded (Joint.revolute ~lower:(-1.) ~upper:1. ()))

let test_joint_span () =
  check_float "span" 2. (Joint.span (Joint.revolute ~lower:(-1.) ~upper:1. ()));
  Alcotest.(check bool) "unbounded span" true
    (Joint.span (Joint.revolute ()) = infinity)

let test_joint_bad_limits () =
  Alcotest.check_raises "lower > upper"
    (Invalid_argument "Joint: lower limit exceeds upper limit") (fun () ->
      ignore (Joint.revolute ~lower:1. ~upper:(-1.) ()))

(* ---- Dh ---- *)

let test_dh_identity () =
  let t = Dh.transform (Dh.make ()) Joint.Revolute 0. in
  Alcotest.(check bool) "identity at zero" true (Mat4.approx_equal t (Mat4.identity ()))

let test_dh_revolute_variable () =
  (* revolute joint value rotates about z *)
  let t = Dh.transform (Dh.make ()) Joint.Revolute (pi /. 2.) in
  Alcotest.(check bool) "pure z-rotation" true
    (Mat4.approx_equal ~tol:1e-12 t (Mat4.rot_z (pi /. 2.)))

let test_dh_prismatic_variable () =
  let t = Dh.transform (Dh.make ()) Joint.Prismatic 0.7 in
  Alcotest.(check bool) "pure z-translation" true
    (Mat4.approx_equal ~tol:1e-12 t (Mat4.translation (Vec3.make 0. 0. 0.7)))

let test_dh_link_length () =
  let t = Dh.transform (Dh.make ~a:2. ()) Joint.Revolute 0. in
  Alcotest.(check bool) "x offset" true
    (Vec3.approx_equal (Mat4.position t) (Vec3.make 2. 0. 0.))

let test_dh_transform_into_matches () =
  let dh = Dh.make ~a:0.5 ~alpha:0.3 ~d:0.2 ~theta:0.1 () in
  let dst = Mat4.identity () in
  Dh.transform_into ~dst dh Joint.Revolute 0.8;
  Alcotest.(check bool) "into = pure" true
    (Mat4.approx_equal dst (Dh.transform dh Joint.Revolute 0.8))

let test_dh_rigid =
  QCheck.Test.make ~name:"DH transforms are rigid" ~count:200
    QCheck.(
      quad (float_range (-2.) 2.) (float_range (-3.) 3.) (float_range (-2.) 2.)
        (float_range (-3.) 3.))
    (fun (a, alpha, d, q) ->
      let t = Dh.transform (Dh.make ~a ~alpha ~d ()) Joint.Revolute q in
      Mat4.is_rigid ~tol:1e-9 t)

(* ---- Chain ---- *)

let two_link =
  Chain.make ~name:"two-link"
    [|
      { Chain.name = "j1"; joint = Joint.revolute (); dh = Dh.make ~a:1. () };
      { Chain.name = "j2"; joint = Joint.revolute (); dh = Dh.make ~a:1. () };
    |]

let test_chain_dof () = Alcotest.(check int) "dof" 2 (Chain.dof two_link)

let test_chain_empty () =
  Alcotest.check_raises "empty rejected" (Invalid_argument "Chain.make: no links")
    (fun () -> ignore (Chain.make [||]))

let test_chain_reach () =
  check_float "reach" 2. (Chain.reach two_link);
  let c = Robots.planar ~dof:5 ~reach:3. () in
  Alcotest.(check (float 1e-9)) "planar reach" 3. (Chain.reach c)

let test_chain_clamp_config () =
  let c =
    Chain.make
      [|
        {
          Chain.name = "j";
          joint = Joint.revolute ~lower:(-0.5) ~upper:0.5 ();
          dh = Dh.make ~a:1. ();
        };
      |]
  in
  Alcotest.(check (array (float 1e-12))) "clamped" [| 0.5 |] (Chain.clamp_config c [| 2. |])

let test_chain_check_config () =
  Alcotest.(check bool) "raises on wrong length" true
    (try
       Chain.check_config two_link [| 0. |];
       false
     with Invalid_argument _ -> true)

let test_chain_base_tool_copied () =
  let base = Mat4.translation (Vec3.make 1. 0. 0.) in
  let c =
    Chain.make ~base
      [| { Chain.name = "j"; joint = Joint.revolute (); dh = Dh.make ~a:1. () } |]
  in
  Mat4.set base 0 3 99.;
  Alcotest.(check bool) "base copied at construction" true
    (Vec3.approx_equal (Mat4.position (Chain.base c)) (Vec3.make 1. 0. 0.))

(* ---- Fk ---- *)

let test_fk_two_link_zero () =
  Alcotest.(check bool) "straight" true
    (Vec3.approx_equal ~tol:1e-12 (Fk.position two_link [| 0.; 0. |]) (Vec3.make 2. 0. 0.))

let test_fk_two_link_elbow () =
  (* q1 = 90deg: first link along y; q2 = -90deg: second link back along x *)
  let p = Fk.position two_link [| pi /. 2.; -.pi /. 2. |] in
  Alcotest.(check bool) "elbow" true (Vec3.approx_equal ~tol:1e-12 p (Vec3.make 1. 1. 0.))

let test_fk_planar_angle_sum () =
  (* for a planar chain the end effector is the sum of link vectors at
     cumulative angles *)
  let c = Robots.planar ~dof:4 ~reach:4. () in
  let q = [| 0.3; -0.5; 1.1; 0.2 |] in
  let expected =
    let cum = ref 0. and x = ref 0. and y = ref 0. in
    Array.iter
      (fun qi ->
        cum := !cum +. qi;
        x := !x +. cos !cum;
        y := !y +. sin !cum)
      q;
    Vec3.make !x !y 0.
  in
  Alcotest.(check bool) "angle-sum identity" true
    (Vec3.approx_equal ~tol:1e-9 (Fk.position c q) expected)

let test_fk_frames_shape () =
  let frames = Fk.frames two_link [| 0.1; 0.2 |] in
  Alcotest.(check int) "dof+1 frames" 3 (Array.length frames);
  Alcotest.(check bool) "last = position" true
    (Vec3.approx_equal
       (Mat4.position frames.(2))
       (Fk.position two_link [| 0.1; 0.2 |]))

let test_fk_pose_matches_position () =
  let q = [| 0.4; -0.9 |] in
  Alcotest.(check bool) "pose position" true
    (Vec3.approx_equal (Mat4.position (Fk.pose two_link q)) (Fk.position two_link q))

let test_fk_scratch_equivalence () =
  let scratch = Fk.make_scratch () in
  let q = [| 0.8; 0.3 |] in
  Alcotest.(check bool) "scratch = default" true
    (Vec3.approx_equal (Fk.position ~scratch two_link q) (Fk.position two_link q))

let test_fk_tool () =
  let tool = Mat4.translation (Vec3.make 0. 0. 0.5) in
  let c =
    Chain.make ~tool
      [| { Chain.name = "j"; joint = Joint.revolute (); dh = Dh.make ~a:1. () } |]
  in
  Alcotest.(check bool) "tool offset applied" true
    (Vec3.approx_equal ~tol:1e-12 (Fk.position c [| 0. |]) (Vec3.make 1. 0. 0.5))

let test_fk_prismatic () =
  let c = Robots.scara () in
  let q0 = [| 0.; 0.; 0.; 0. |] in
  let q1 = [| 0.; 0.; 0.1; 0. |] in
  let p0 = Fk.position c q0 and p1 = Fk.position c q1 in
  Alcotest.(check (float 1e-9)) "quill moves 0.1 along its axis" 0.1 (Vec3.dist p0 p1)

let seeded_config rng chain = Target.random_config rng chain

let test_fk_within_reach =
  QCheck.Test.make ~name:"FK position within conservative reach" ~count:200
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let dof = 2 + Rng.int rng 10 in
      let chain = Robots.random rng ~dof ~reach:2.0 () in
      let q = seeded_config rng chain in
      Vec3.norm (Fk.position chain q) <= Chain.reach chain +. 1e-9)

let test_fk_pose_rigid =
  QCheck.Test.make ~name:"FK pose is a rigid transform" ~count:200
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let dof = 2 + Rng.int rng 10 in
      let chain = Robots.random rng ~dof ~reach:2.0 () in
      let q = seeded_config rng chain in
      Mat4.is_rigid ~tol:1e-8 (Fk.pose chain q))

let test_fk_flops_positive () =
  Alcotest.(check bool) "monotone" true
    (Fk.flops_per_position 100 > Fk.flops_per_position 12
    && Fk.flops_per_position 1 > 0)

(* ---- Jacobian ---- *)

let test_jacobian_matches_numerical =
  QCheck.Test.make ~name:"analytic Jacobian = finite differences" ~count:100
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let dof = 2 + Rng.int rng 12 in
      let chain = Robots.random rng ~dof ~reach:2.0 () in
      let q = seeded_config rng chain in
      let analytic = Jacobian.position_jacobian chain q in
      let numerical = Jacobian.numerical_position_jacobian chain q in
      Mat.approx_equal ~tol:1e-5 analytic numerical)

(* Independent oracle: central finite differences of [Fk.position] itself,
   computed here rather than via [Jacobian.numerical_position_jacobian], so a
   shared bug in the library's differencing code cannot mask an error. *)
let central_difference_jacobian chain q =
  let dof = Chain.dof chain in
  let h = 1e-6 in
  Mat.init 3 dof (fun row col ->
      let shifted delta =
        let q' = Array.copy q in
        q'.(col) <- q'.(col) +. delta;
        Fk.position chain q'
      in
      let plus = shifted h and minus = shifted (-.h) in
      let d =
        match row with
        | 0 -> plus.Vec3.x -. minus.Vec3.x
        | 1 -> plus.Vec3.y -. minus.Vec3.y
        | _ -> plus.Vec3.z -. minus.Vec3.z
      in
      d /. (2. *. h))

let test_jacobian_matches_central_fd =
  QCheck.Test.make
    ~name:"analytic Jacobian columns = central differences of FK (3-40 DOF)"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dof = 3 + Rng.int rng 38 in
      let chain = Robots.random rng ~dof ~reach:(0.2 *. float_of_int dof) () in
      let q = seeded_config rng chain in
      let analytic = Jacobian.position_jacobian chain q in
      let oracle = central_difference_jacobian chain q in
      (* column-by-column so a failure names the offending joint *)
      let ok = ref true in
      for col = 0 to dof - 1 do
        let err = ref 0. in
        for row = 0 to 2 do
          err :=
            Float.max !err
              (Float.abs (Mat.get analytic row col -. Mat.get oracle row col))
        done;
        if !err > 1e-4 *. Float.max 1. (Chain.reach chain) then ok := false
      done;
      !ok)

let test_jacobian_matches_numerical_prismatic () =
  let chain = Robots.scara () in
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    let q = seeded_config rng chain in
    let analytic = Jacobian.position_jacobian chain q in
    let numerical = Jacobian.numerical_position_jacobian chain q in
    Alcotest.(check bool) "scara jacobian" true
      (Mat.approx_equal ~tol:1e-5 analytic numerical)
  done

let test_jacobian_planar_z_row_zero () =
  let chain = Robots.planar ~dof:6 ~reach:3. () in
  let rng = Rng.create 4 in
  let q = seeded_config rng chain in
  let j = Jacobian.position_jacobian chain q in
  for col = 0 to 5 do
    check_float "z row" 0. (Mat.get j 2 col)
  done

let test_full_jacobian_top_matches () =
  let chain = Robots.arm_7dof () in
  let rng = Rng.create 5 in
  let q = seeded_config rng chain in
  let jp = Jacobian.position_jacobian chain q in
  let jf = Jacobian.full_jacobian chain q in
  let ok = ref true in
  for i = 0 to 2 do
    for jcol = 0 to Chain.dof chain - 1 do
      if Float.abs (Mat.get jp i jcol -. Mat.get jf i jcol) > 1e-12 then ok := false
    done
  done;
  Alcotest.(check bool) "rows 0-2 equal" true !ok

let test_full_jacobian_angular_revolute () =
  let chain = two_link in
  let q = [| 0.2; 0.4 |] in
  let jf = Jacobian.full_jacobian chain q in
  let frames = Fk.frames chain q in
  for col = 0 to 1 do
    let z = Mat4.z_axis frames.(col) in
    Alcotest.(check bool) "angular = joint axis" true
      (Vec3.approx_equal ~tol:1e-12 z
         (Vec3.make (Mat.get jf 3 col) (Mat.get jf 4 col) (Mat.get jf 5 col)))
  done

let test_jacobian_of_frames_matches () =
  let chain = Robots.eval_chain ~dof:12 in
  let rng = Rng.create 6 in
  let q = seeded_config rng chain in
  let frames = Fk.frames chain q in
  Alcotest.(check bool) "frames variant equal" true
    (Mat.approx_equal
       (Jacobian.position_jacobian_of_frames chain frames)
       (Jacobian.position_jacobian chain q))

let test_jacobian_frame_count () =
  Alcotest.(check bool) "wrong frame count rejected" true
    (try
       ignore (Jacobian.position_jacobian_of_frames two_link [| Mat4.identity () |]);
       false
     with Invalid_argument _ -> true)

(* ---- Robots ---- *)

let test_robots_dofs () =
  Alcotest.(check (list int)) "eval dofs" [ 12; 25; 50; 75; 100 ] Robots.eval_dofs;
  Alcotest.(check int) "6dof" 6 (Chain.dof (Robots.arm_6dof ()));
  Alcotest.(check int) "7dof" 7 (Chain.dof (Robots.arm_7dof ()));
  Alcotest.(check int) "scara" 4 (Chain.dof (Robots.scara ()));
  Alcotest.(check int) "snake" 30 (Chain.dof (Robots.snake ~dof:30));
  Alcotest.(check int) "eval chain" 25 (Chain.dof (Robots.eval_chain ~dof:25))

let test_robots_eval_chain_link_length () =
  (* eval chains use 1 m links *)
  let c = Robots.eval_chain ~dof:50 in
  Alcotest.(check (float 1e-9)) "reach = dof meters" 50. (Chain.reach c)

let test_robots_scara_prismatic () =
  let c = Robots.scara () in
  let kinds = Array.map (fun l -> l.Chain.joint.Joint.kind) (Chain.links c) in
  Alcotest.(check bool) "has prismatic quill" true (Array.mem Joint.Prismatic kinds)

let test_robots_snake_limits () =
  let c = Robots.snake ~dof:10 in
  Array.iter
    (fun l ->
      Alcotest.(check bool) "bounded" false (Joint.unbounded l.Chain.joint))
    (Chain.links c)

let test_robots_random_deterministic () =
  let mk seed =
    let rng = Rng.create seed in
    Robots.random rng ~dof:8 ~reach:2. ()
  in
  let a = mk 5 and b = mk 5 in
  let q = Array.make 8 0.4 in
  Alcotest.(check bool) "same geometry" true
    (Vec3.approx_equal (Fk.position a q) (Fk.position b q))

let test_robots_invalid_dof () =
  Alcotest.(check bool) "dof 0 rejected" true
    (try
       ignore (Robots.spatial ~dof:0 ~reach:1. ());
       false
     with Invalid_argument _ -> true)

(* ---- Target ---- *)

let test_target_reachable =
  QCheck.Test.make ~name:"targets are within reach" ~count:200
    QCheck.(int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let chain = Robots.eval_chain ~dof:12 in
      let t = Target.reachable rng chain in
      Vec3.norm t <= Chain.reach chain +. 1e-9)

let test_target_config_within_limits () =
  let chain = Robots.snake ~dof:12 in
  let rng = Rng.create 17 in
  for _ = 1 to 100 do
    let q = Target.random_config rng chain in
    Alcotest.(check bool) "inside limits" true (Chain.config_inside chain q)
  done

let test_target_batch_size () =
  let rng = Rng.create 18 in
  Alcotest.(check int) "batch" 7
    (Array.length (Target.batch rng (Robots.eval_chain ~dof:12) 7))

let test_target_unreachable_outside () =
  let rng = Rng.create 19 in
  let chain = Robots.arm_6dof () in
  for _ = 1 to 20 do
    let t = Target.unreachable rng chain in
    Alcotest.(check bool) "outside workspace" true (Vec3.norm t > Chain.reach chain)
  done

let test_workspace_ellipsoid () =
  let chain = Robots.eval_chain ~dof:8 in
  let rng = Rng.create 75 in
  let q = Target.random_config rng chain in
  let axes = Workspace.ellipsoid chain q in
  Alcotest.(check int) "three axes" 3 (List.length axes);
  (* axes are orthonormal directions with descending lengths equal to the
     Jacobian's singular values *)
  let dirs = List.map fst axes and lens = List.map snd axes in
  List.iteri
    (fun i d ->
      Alcotest.(check (float 1e-7)) "unit direction" 1. (Vec3.norm d);
      List.iteri
        (fun j d' ->
          if i < j then
            Alcotest.(check (float 1e-6)) "orthogonal" 0. (Vec3.dot d d'))
        dirs)
    dirs;
  let svd = Svd.decompose (Jacobian.position_jacobian chain q) in
  List.iteri
    (fun k len ->
      Alcotest.(check bool) "length = singular value" true
        (Float.abs (len -. svd.Svd.sigma.(k)) < 1e-6 *. Float.max 1. len))
    lens;
  (match lens with
  | [ a; b; c ] ->
    Alcotest.(check bool) "descending" true (a >= b && b >= c)
  | _ -> Alcotest.fail "expected 3")

(* ---- Chain_format ---- *)

let demo_description = String.concat "\n" [
  "# demo";
  "chain demo-arm";
  "base translate 0 0 0.2";
  "joint shoulder revolute a=0.5 alpha=90deg limits=-170deg,170deg";
  "joint elbow revolute a=0.4";
  "joint quill prismatic limits=0,0.18";
  "tool translate 0 0 0.05";
]

let test_format_parse () =
  match Chain_format.parse demo_description with
  | Error msg -> Alcotest.fail msg
  | Ok chain ->
    Alcotest.(check string) "name" "demo-arm" (Chain.name chain);
    Alcotest.(check int) "dof" 3 (Chain.dof chain);
    let shoulder = Chain.link chain 0 in
    Alcotest.(check (float 1e-12)) "a" 0.5 shoulder.Chain.dh.Dh.a;
    Alcotest.(check (float 1e-9)) "alpha in radians" (pi /. 2.) shoulder.Chain.dh.Dh.alpha;
    Alcotest.(check (float 1e-9)) "limits in radians" (170. *. pi /. 180.)
      shoulder.Chain.joint.Joint.upper;
    Alcotest.(check bool) "quill prismatic" true
      ((Chain.link chain 2).Chain.joint.Joint.kind = Joint.Prismatic);
    Alcotest.(check bool) "base applied" true
      (Vec3.approx_equal ~tol:1e-12
         (Mat4.position (Chain.base chain))
         (Vec3.make 0. 0. 0.2))

let test_format_roundtrip () =
  List.iter
    (fun chain ->
      match Chain_format.parse (Chain_format.to_string chain) with
      | Error msg -> Alcotest.fail (Chain.name chain ^ ": " ^ msg)
      | Ok chain' ->
        Alcotest.(check int) "dof preserved" (Chain.dof chain) (Chain.dof chain');
        let rng = Rng.create 5 in
        for _ = 1 to 10 do
          let q = Target.random_config rng chain in
          Alcotest.(check bool) "identical FK" true
            (Vec3.approx_equal ~tol:1e-12 (Fk.position chain q) (Fk.position chain' q))
        done)
    [
      Robots.eval_chain ~dof:12;
      Robots.snake ~dof:10;
      Robots.scara ();
      Robots.arm_7dof ();
    ]

let test_format_errors () =
  let expect_error fragment description =
    match Chain_format.parse description with
    | Ok _ -> Alcotest.fail ("expected failure: " ^ fragment)
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S (got %S)" fragment msg)
        true
        (Astring.String.is_infix ~affix:fragment msg)
  in
  expect_error "no joints" "chain empty";
  expect_error "line 2" "chain x\njoint j1 floppy a=1";
  expect_error "unknown directive" "wat 3";
  expect_error "expected a number" "joint j revolute a=abc";
  expect_error "limits out of order" "joint j revolute limits=2,1";
  expect_error "unknown joint parameter" "joint j revolute blah=3"

let test_format_comments_and_blanks () =
  let src = "\n# only a comment\n\njoint j revolute a=1 # trailing comment\n\n" in
  match Chain_format.parse src with
  | Error msg -> Alcotest.fail msg
  | Ok chain -> Alcotest.(check int) "one joint" 1 (Chain.dof chain)

let test_format_parse_file () =
  let path = Filename.temp_file "dadu" ".robot" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc demo_description);
  let result = Chain_format.parse_file path in
  Sys.remove path;
  match result with
  | Ok chain -> Alcotest.(check int) "dof" 3 (Chain.dof chain)
  | Error msg -> Alcotest.fail msg

let test_format_missing_file () =
  Alcotest.(check bool) "missing file is an error" true
    (Result.is_error (Chain_format.parse_file "/nonexistent/robot.txt"))

(* ---- Workspace ---- *)

let test_workspace_manipulability_singular () =
  (* straightened planar arm: all joint axes aligned, J rank-deficient in
     the plane -> manipulability 0 *)
  let chain = Robots.planar ~dof:4 ~reach:4. () in
  Alcotest.(check (float 1e-9)) "singular at zero pose" 0.
    (Workspace.manipulability chain (Array.make 4 0.))

let test_workspace_manipulability_positive () =
  let chain = Robots.eval_chain ~dof:8 in
  let rng = Rng.create 71 in
  let q = Target.random_config rng chain in
  Alcotest.(check bool) "positive away from singularity" true
    (Workspace.manipulability chain q > 0.)

let test_workspace_condition_ge_one () =
  let chain = Robots.eval_chain ~dof:8 in
  let rng = Rng.create 72 in
  for _ = 1 to 20 do
    let q = Target.random_config rng chain in
    Alcotest.(check bool) "cond >= 1" true (Workspace.condition_number chain q >= 1.)
  done

let test_workspace_sample () =
  let chain = Robots.arm_6dof () in
  let rng = Rng.create 73 in
  let s = Workspace.sample ~samples:200 rng chain in
  Alcotest.(check int) "samples" 200 s.Workspace.samples;
  Alcotest.(check bool) "reach max within conservative bound" true
    (s.Workspace.reach_max <= Chain.reach chain +. 1e-9);
  Alcotest.(check bool) "median <= max" true
    (s.Workspace.reach_p50 <= s.Workspace.reach_max);
  Alcotest.(check bool) "bbox ordered" true
    (s.Workspace.extent_min.Vec3.x <= s.Workspace.extent_max.Vec3.x
    && s.Workspace.extent_min.Vec3.y <= s.Workspace.extent_max.Vec3.y
    && s.Workspace.extent_min.Vec3.z <= s.Workspace.extent_max.Vec3.z);
  Alcotest.(check bool) "singular fraction in [0,1]" true
    (s.Workspace.singular_fraction >= 0. && s.Workspace.singular_fraction <= 1.)

let test_workspace_low_twist_worse_conditioned () =
  (* the whole point of the 10-degree eval geometry: worse conditioning
     than the 90-degree spatial chain *)
  let rng1 = Rng.create 74 and rng2 = Rng.create 74 in
  let low = Workspace.sample ~samples:200 rng1 (Robots.eval_chain ~dof:25) in
  let high =
    Workspace.sample ~samples:200 rng2 (Robots.spatial ~dof:25 ~reach:25. ())
  in
  Alcotest.(check bool) "median condition number higher on eval chain" true
    (low.Workspace.condition.Dadu_util.Stats.p50
    > high.Workspace.condition.Dadu_util.Stats.p50)

(* ---- Viz ---- *)

let count_occurrences needle haystack =
  let n = String.length needle in
  let rec go idx acc =
    match Astring.String.find_sub ~start:idx ~sub:needle haystack with
    | Some i -> go (i + n) (acc + 1)
    | None -> acc
  in
  go 0 0

let test_viz_structure () =
  let chain = Robots.planar ~dof:4 ~reach:2. () in
  let rng = Rng.create 41 in
  let p1 = Viz.posture ~label:"before" (Target.random_config rng chain) in
  let p2 = Viz.posture ~label:"after" (Target.random_config rng chain) in
  let target = Target.reachable rng chain in
  let svg = Viz.render ~targets:[ target ] chain [ p1; p2 ] in
  Alcotest.(check bool) "opens svg" true (Astring.String.is_prefix ~affix:"<svg" svg);
  Alcotest.(check bool) "closes svg" true
    (Astring.String.is_suffix ~affix:"</svg>\n" svg);
  Alcotest.(check int) "two polylines" 2 (count_occurrences "class=\"posture\"" svg);
  Alcotest.(check int) "joint dots = 2 x (dof+1)" 10
    (count_occurrences "class=\"joint\"" svg);
  Alcotest.(check int) "one target cross" 1 (count_occurrences "class=\"target\"" svg)

let test_viz_empty_rejected () =
  let chain = Robots.planar ~dof:3 ~reach:1. () in
  Alcotest.(check bool) "no postures rejected" true
    (try
       ignore (Viz.render chain []);
       false
     with Invalid_argument _ -> true)

let test_viz_points_within_canvas () =
  let chain = Robots.snake ~dof:12 in
  let rng = Rng.create 42 in
  let svg =
    Viz.render ~width:400 ~height:300 chain
      [ Viz.posture (Target.random_config rng chain) ]
  in
  (* every plotted cx/cy attribute stays within the canvas *)
  let ok = ref true in
  let check_attr name upper =
    let rec scan idx =
      match Astring.String.find_sub ~start:idx ~sub:(name ^ "=\"") svg with
      | None -> ()
      | Some i ->
        let start = i + String.length name + 2 in
        let stop = String.index_from svg start '"' in
        let v = float_of_string (String.sub svg start (stop - start)) in
        if v < -0.001 || v > upper +. 0.001 then ok := false;
        scan stop
    in
    scan 0
  in
  check_attr "cx" 400.;
  check_attr "cy" 300.;
  Alcotest.(check bool) "within canvas" true !ok

let test_viz_write () =
  let chain = Robots.planar ~dof:3 ~reach:1.5 () in
  let path = Filename.temp_file "dadu" ".svg" in
  Viz.write ~path chain [ Viz.posture (Array.make 3 0.3) ];
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "file has svg" true (Astring.String.is_prefix ~affix:"<svg" content)

(* ---- Traj ---- *)

let test_traj_line () =
  let a = Vec3.make 0. 0. 0. and b = Vec3.make 1. 2. 3. in
  let pts = Traj.line ~from:a ~to_:b ~samples:5 in
  Alcotest.(check int) "samples" 5 (Array.length pts);
  Alcotest.(check bool) "start" true (Vec3.approx_equal pts.(0) a);
  Alcotest.(check bool) "end" true (Vec3.approx_equal pts.(4) b)

let test_traj_circle_radius () =
  let center = Vec3.make 1. 1. 1. in
  let pts = Traj.circle ~center ~radius:0.5 ~normal:(Vec3.make 0. 0. 2.) ~samples:32 in
  Array.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) "radius" 0.5 (Vec3.dist p center);
      Alcotest.(check (float 1e-9)) "in plane" 1. p.Vec3.z)
    pts

let test_traj_circle_plane_orthogonal () =
  let normal = Vec3.make 1. 1. 0.5 in
  let center = Vec3.zero in
  let pts = Traj.circle ~center ~radius:1. ~normal ~samples:16 in
  Array.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) "orthogonal to normal" 0.
        (Vec3.dot p (Vec3.normalize normal)))
    pts

let test_traj_arc_length_line () =
  let a = Vec3.zero and b = Vec3.make 3. 4. 0. in
  Alcotest.(check (float 1e-9)) "length" 5.
    (Traj.arc_length (Traj.line ~from:a ~to_:b ~samples:11))

let test_traj_lissajous_bounds () =
  let amp = Vec3.make 1. 2. 0.5 in
  let pts =
    Traj.lissajous ~center:Vec3.zero ~amplitude:amp ~freq:(1, 2, 3) ~samples:64
  in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "bounded" true
        (Float.abs p.Vec3.x <= 1.0 +. 1e-9
        && Float.abs p.Vec3.y <= 2.0 +. 1e-9
        && Float.abs p.Vec3.z <= 0.5 +. 1e-9))
    pts

let test_traj_invalid () =
  Alcotest.(check bool) "few samples rejected" true
    (try
       ignore (Traj.line ~from:Vec3.zero ~to_:Vec3.ex ~samples:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad radius rejected" true
    (try
       ignore (Traj.circle ~center:Vec3.zero ~radius:0. ~normal:Vec3.ez ~samples:8);
       false
     with Invalid_argument _ -> true)

(* ---- differential tests: scratch FK/Jacobian vs the allocating oracle ----

   The workspace FK kernel ([Fk.run]) folds each DH transform into the
   running product without materializing the link matrix and skips products
   against the transform's structural zeros.  Every partial product it does
   compute is the same expression, in the same association order, as the
   oracle below (explicit [Dh.transform] matrices folded with the general
   [Mat4.mul]), so components may differ only in the sign of a zero —
   checked here as plain float equality or a ≤1-ulp gap, across random
   3–100-DOF chains mixing revolute and prismatic joints. *)

let ulp_close a b =
  a = b
  || (Float.is_nan a && Float.is_nan b)
  || ((a < 0.) = (b < 0.)
     && Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float b))
        <= 1L)

let check_ulp name expected actual =
  Array.iteri
    (fun i e ->
      if not (ulp_close e actual.(i)) then
        Alcotest.failf "%s: component %d differs beyond 1 ulp: %h vs %h" name i
          e actual.(i))
    expected

(* Random chain with mixed joint kinds and twists outside Robots.random's
   quantized set, built deterministically from a seed. *)
let mixed_chain seed dof =
  let rng = Rng.create seed in
  let links =
    Array.init dof (fun i ->
        let dh =
          Dh.make
            ~a:(Rng.uniform rng (-0.5) 0.5)
            ~alpha:(Rng.uniform rng (-.pi) pi)
            ~d:(Rng.uniform rng (-0.3) 0.3)
            ~theta:(Rng.uniform rng (-.pi) pi)
            ()
        in
        let joint =
          if Rng.float rng 1. < 0.25 then
            Joint.prismatic ~lower:(-0.5) ~upper:0.5 ()
          else Joint.revolute ~lower:(-.pi) ~upper:pi ()
        in
        { Chain.name = Printf.sprintf "j%d" (i + 1); joint; dh })
  in
  Chain.make ~name:(Printf.sprintf "mixed-%d-%d" seed dof) links

let mixed_config seed chain =
  let rng = Rng.create (seed + 1) in
  Array.init (Chain.dof chain) (fun i ->
      let { Chain.joint; _ } = Chain.link chain i in
      Rng.uniform rng joint.Joint.lower joint.Joint.upper)

let oracle_pose chain q =
  let links = Chain.links chain in
  let acc = ref (Mat4.copy (Chain.base chain)) in
  Array.iteri
    (fun i { Chain.joint; dh; _ } ->
      acc := Mat4.mul !acc (Dh.transform dh joint.Joint.kind q.(i)))
    links;
  Mat4.mul !acc (Chain.tool chain)

let oracle_frames chain q =
  let links = Chain.links chain in
  let n = Array.length links in
  let frames = Array.make (n + 1) (Mat4.identity ()) in
  frames.(0) <- Mat4.copy (Chain.base chain);
  for i = 0 to n - 2 do
    let { Chain.joint; dh; _ } = links.(i) in
    frames.(i + 1) <- Mat4.mul frames.(i) (Dh.transform dh joint.Joint.kind q.(i))
  done;
  let { Chain.joint; dh; _ } = links.(n - 1) in
  frames.(n) <-
    Mat4.mul
      (Mat4.mul frames.(n - 1) (Dh.transform dh joint.Joint.kind q.(n - 1)))
      (Chain.tool chain);
  frames

let chain_case_gen = QCheck.(pair (int_range 3 100) (int_bound 9999))

let test_fk_scratch_differential =
  QCheck.Test.make ~name:"scratch FK = oracle on random chains" ~count:60
    chain_case_gen
    (fun (dof, seed) ->
      let chain = mixed_chain seed dof in
      let q = mixed_config seed chain in
      let expected = oracle_pose chain q in
      let scratch = Fk.make_scratch () in
      Fk.run ~scratch chain q;
      check_ulp "pose" expected (Fk.end_transform scratch);
      let dst = Array.make 3 nan in
      Fk.position_into ~scratch ~dst chain q;
      check_ulp "position_into"
        [| expected.(3); expected.(7); expected.(11) |]
        dst;
      let p = Fk.position ~scratch chain q in
      check_ulp "position" dst [| p.Vec3.x; p.Vec3.y; p.Vec3.z |];
      true)

let test_frames_scratch_differential =
  QCheck.Test.make ~name:"scratch frames = oracle on random chains" ~count:40
    chain_case_gen
    (fun (dof, seed) ->
      let chain = mixed_chain seed dof in
      let q = mixed_config seed chain in
      let expected = oracle_frames chain q in
      let scratch = Fk.make_scratch () in
      let actual = Fk.frames ~scratch chain q in
      Array.iteri
        (fun i e -> check_ulp (Printf.sprintf "frame %d" i) e actual.(i))
        expected;
      (* scratch-owned buffer: a second call must reproduce the same bits *)
      let again = Fk.frames ~scratch chain q in
      Array.iteri
        (fun i e ->
          Array.iteri
            (fun k x ->
              if Int64.bits_of_float x <> Int64.bits_of_float again.(i).(k) then
                Alcotest.failf "frames reuse: frame %d component %d" i k)
            e)
        actual;
      true)

let test_jacobian_into_differential =
  QCheck.Test.make ~name:"position_jacobian_into = Vec3 oracle" ~count:40
    chain_case_gen
    (fun (dof, seed) ->
      let chain = mixed_chain seed dof in
      let q = mixed_config seed chain in
      let frames = oracle_frames chain q in
      let p_end = Mat4.position frames.(dof) in
      let j = Mat.create 3 dof in
      (* frames from the scratch path feed the kernel, as in the solvers *)
      let scratch = Fk.make_scratch () in
      let scratch_frames = Fk.frames ~scratch chain q in
      Jacobian.position_jacobian_into ~dst:j chain scratch_frames;
      for i = 0 to dof - 1 do
        let { Chain.joint; _ } = Chain.link chain i in
        let col =
          match joint.Joint.kind with
          | Joint.Revolute ->
            Vec3.cross (Mat4.z_axis frames.(i))
              (Vec3.sub p_end (Mat4.position frames.(i)))
          | Joint.Prismatic -> Mat4.z_axis frames.(i)
        in
        if
          not
            (ulp_close col.Vec3.x (Mat.get j 0 i)
            && ulp_close col.Vec3.y (Mat.get j 1 i)
            && ulp_close col.Vec3.z (Mat.get j 2 i))
        then Alcotest.failf "jacobian column %d differs beyond 1 ulp" i
      done;
      true)

(* Corner case: zero-length links collapse the whole chain onto the base
   frame; the fused kernel must still produce an exact identity. *)
let test_fk_zero_length_links () =
  let links =
    Array.init 8 (fun i ->
        { Chain.name = Printf.sprintf "z%d" i;
          joint = Joint.revolute ();
          dh = Dh.make () })
  in
  let chain = Chain.make ~name:"degenerate" links in
  let q = Array.make 8 0. in
  let scratch = Fk.make_scratch () in
  Fk.run ~scratch chain q;
  check_ulp "zero-length pose" (Mat4.identity ()) (Fk.end_transform scratch);
  check_ulp "zero-length oracle" (oracle_pose chain q) (Fk.end_transform scratch)

(* Corner case: configurations pinned exactly at the joint limits (the
   angles solvers clamp to), for a seed-pinned chain. *)
let test_fk_limit_boundaries () =
  let chain = mixed_chain 424242 17 in
  let scratch = Fk.make_scratch () in
  List.iter
    (fun pick ->
      let q =
        Array.init 17 (fun i ->
            let { Chain.joint; _ } = Chain.link chain i in
            pick joint)
      in
      let expected = oracle_pose chain q in
      Fk.run ~scratch chain q;
      check_ulp "limit pose" expected (Fk.end_transform scratch))
    [ (fun j -> j.Joint.lower); (fun j -> j.Joint.upper); (fun _ -> 0.) ]

(* The FK scratch caches per-chain link constants; switching chains (and
   DOFs) on one scratch must recompile, never reuse stale constants. *)
let test_fk_scratch_across_chains () =
  let a = mixed_chain 7 30 and b = mixed_chain 8 12 in
  let qa = mixed_config 7 a and qb = mixed_config 8 b in
  let shared = Fk.make_scratch () in
  let fresh () = Fk.make_scratch () in
  Fk.run ~scratch:shared a qa;
  let ea = Mat4.copy (Fk.end_transform shared) in
  Fk.run ~scratch:shared b qb;
  let eb = Mat4.copy (Fk.end_transform shared) in
  Fk.run ~scratch:shared a qa;
  let ea' = Mat4.copy (Fk.end_transform shared) in
  let want_a = fresh () and want_b = fresh () in
  Fk.run ~scratch:want_a a qa;
  Fk.run ~scratch:want_b b qb;
  check_ulp "chain a on shared scratch" (Fk.end_transform want_a) ea;
  check_ulp "chain b on shared scratch" (Fk.end_transform want_b) eb;
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float ea'.(i) then
        Alcotest.failf "revisiting chain a is not bit-stable (component %d)" i)
    ea

(* ---- speculation kernel: positions_many_into / speculate_range_into ----

   The link-major kernel folds the chain tool→base (right-to-left) while
   [Fk.run] folds base→tool, so the two reassociate the same product and
   positions agree only up to accumulated rounding — checked with a
   reach-scaled tolerance, not ulps.  Everything the kernel promises
   exactly is checked bitwise: a range-partitioned sweep writes the same
   bits as one full-range call, [err2] is exactly the fused squared
   distance of the written position, and candidates are independent. *)

let spec_close ~scale a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. scale

let candidate_oracle chain theta dtheta c =
  let dof = Chain.dof chain in
  (* the same expression order the kernel uses: α·Δθᵢ + θᵢ *)
  let q = Array.init dof (fun i -> (c *. dtheta.(i)) +. theta.(i)) in
  Fk.position chain q

let spec_case seed dof =
  let chain = mixed_chain seed dof in
  let theta = mixed_config seed chain in
  let rng = Rng.create (seed + 2) in
  let dtheta = Array.init dof (fun _ -> Rng.uniform rng (-1.) 1.) in
  let count = 1 + Rng.int rng 64 in
  let coeffs = Array.init count (fun _ -> Rng.uniform rng (-1.5) 1.5) in
  (chain, theta, dtheta, count, coeffs)

let bits = Int64.bits_of_float

let test_positions_many_differential =
  QCheck.Test.make ~name:"positions_many_into = per-candidate FK oracle"
    ~count:60 chain_case_gen (fun (dof, seed) ->
      let chain, theta, dtheta, count, coeffs = spec_case seed dof in
      let scratch = Fk.make_scratch () in
      let dst = Array.make (3 * count) nan in
      Fk.positions_many_into ~scratch ~dst chain ~theta ~dtheta ~coeffs ~count;
      let scale = Chain.reach chain in
      for k = 0 to count - 1 do
        let p = candidate_oracle chain theta dtheta coeffs.(k) in
        if
          not
            (spec_close ~scale p.Vec3.x dst.(k)
            && spec_close ~scale p.Vec3.y dst.(count + k)
            && spec_close ~scale p.Vec3.z dst.((2 * count) + k))
        then
          Alcotest.failf
            "candidate %d drifted beyond reassociation tolerance" k
      done;
      true)

let test_speculate_matches_positions_many =
  QCheck.Test.make
    ~name:"speculate_range_into = positions_many_into + fused err²" ~count:60
    chain_case_gen (fun (dof, seed) ->
      let chain, theta, dtheta, count, coeffs = spec_case seed dof in
      let scratch = Fk.make_scratch () in
      let dst = Array.make (3 * count) nan in
      Fk.positions_many_into ~scratch ~dst chain ~theta ~dtheta ~coeffs ~count;
      let rng = Rng.create (seed + 3) in
      let tx = Rng.uniform rng (-2.) 2.
      and ty = Rng.uniform rng (-2.) 2.
      and tz = Rng.uniform rng (-2.) 2. in
      let pos = Array.make (3 * count) nan in
      let err2 = Array.make count nan in
      Fk.speculate_range_into ~scratch ~pos ~err2 ~tx ~ty ~tz chain ~theta
        ~dtheta ~coeffs ~stride:count ~lo:0 ~hi:count;
      for i = 0 to (3 * count) - 1 do
        if bits pos.(i) <> bits dst.(i) then
          Alcotest.failf "pos component %d not bit-identical across kernels" i
      done;
      for k = 0 to count - 1 do
        let dx = tx -. pos.(k)
        and dy = ty -. pos.(count + k)
        and dz = tz -. pos.((2 * count) + k) in
        let e = ((dx *. dx) +. (dy *. dy)) +. (dz *. dz) in
        if bits e <> bits err2.(k) then
          Alcotest.failf "err2 %d is not the fused squared distance" k
      done;
      true)

let test_speculate_partition_bit_identical =
  QCheck.Test.make ~name:"range-partitioned sweeps = full sweep, bitwise"
    ~count:40 chain_case_gen (fun (dof, seed) ->
      let chain, theta, dtheta, count, coeffs = spec_case seed dof in
      let scratch = Fk.make_scratch () in
      Fk.precompile scratch chain;
      let sweep pos err2 lo hi =
        Fk.speculate_range_into ~scratch ~pos ~err2 ~tx:0.3 ~ty:(-0.7)
          ~tz:1.1 chain ~theta ~dtheta ~coeffs ~stride:count ~lo ~hi
      in
      let full_pos = Array.make (3 * count) nan in
      let full_err2 = Array.make count nan in
      sweep full_pos full_err2 0 count;
      let part_pos = Array.make (3 * count) nan in
      let part_err2 = Array.make count nan in
      let rng = Rng.create (seed + 4) in
      let grain = 1 + Rng.int rng count in
      let lo = ref 0 in
      while !lo < count do
        let hi = Stdlib.min count (!lo + grain) in
        sweep part_pos part_err2 !lo hi;
        lo := hi
      done;
      for i = 0 to (3 * count) - 1 do
        if bits part_pos.(i) <> bits full_pos.(i) then
          Alcotest.failf "partitioned pos %d differs (grain %d)" i grain
      done;
      for k = 0 to count - 1 do
        if bits part_err2.(k) <> bits full_err2.(k) then
          Alcotest.failf "partitioned err2 %d differs (grain %d)" k grain
      done;
      true)

(* zero coefficients collapse every candidate onto θ itself: planes must be
   constant bit for bit (candidate independence), and match the forward
   kernels up to reassociation *)
let test_positions_many_zero_coeff () =
  let chain = mixed_chain 99 40 in
  let theta = mixed_config 99 chain in
  let dtheta = Array.make 40 0.37 in
  let count = 8 in
  let coeffs = Array.make count 0. in
  let scratch = Fk.make_scratch () in
  let dst = Array.make (3 * count) nan in
  Fk.positions_many_into ~scratch ~dst chain ~theta ~dtheta ~coeffs ~count;
  for k = 1 to count - 1 do
    for plane = 0 to 2 do
      if bits dst.((plane * count) + k) <> bits dst.(plane * count) then
        Alcotest.failf "zero-coeff candidate %d plane %d differs" k plane
    done
  done;
  let p = Fk.position chain theta in
  let scale = Chain.reach chain in
  Alcotest.(check bool) "matches forward FK" true
    (spec_close ~scale p.Vec3.x dst.(0)
    && spec_close ~scale p.Vec3.y dst.(count)
    && spec_close ~scale p.Vec3.z dst.(2 * count))

let test_speculate_validation () =
  let chain = mixed_chain 5 6 in
  let theta = Array.make 6 0. and dtheta = Array.make 6 0. in
  let scratch = Fk.make_scratch () in
  let expect name f =
    Alcotest.(check bool) name true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  expect "count 0" (fun () ->
      Fk.positions_many_into ~scratch ~dst:[||] chain ~theta ~dtheta
        ~coeffs:[||] ~count:0);
  expect "short dst" (fun () ->
      Fk.positions_many_into ~scratch ~dst:(Array.make 5 0.) chain ~theta
        ~dtheta ~coeffs:(Array.make 2 0.) ~count:2);
  expect "theta length" (fun () ->
      Fk.positions_many_into ~scratch ~dst:(Array.make 6 0.) chain
        ~theta:(Array.make 5 0.) ~dtheta ~coeffs:(Array.make 2 0.) ~count:2);
  expect "dtheta length" (fun () ->
      Fk.positions_many_into ~scratch ~dst:(Array.make 6 0.) chain ~theta
        ~dtheta:(Array.make 7 0.) ~coeffs:(Array.make 2 0.) ~count:2);
  expect "short coeffs" (fun () ->
      Fk.speculate_range_into ~scratch ~pos:(Array.make 6 0.)
        ~err2:(Array.make 2 0.) ~tx:0. ~ty:0. ~tz:0. chain ~theta ~dtheta
        ~coeffs:[| 0. |] ~stride:2 ~lo:0 ~hi:2);
  expect "hi beyond stride" (fun () ->
      Fk.speculate_range_into ~scratch ~pos:(Array.make 6 0.)
        ~err2:(Array.make 2 0.) ~tx:0. ~ty:0. ~tz:0. chain ~theta ~dtheta
        ~coeffs:(Array.make 4 0.) ~stride:2 ~lo:0 ~hi:3);
  expect "negative lo" (fun () ->
      Fk.speculate_range_into ~scratch ~pos:(Array.make 6 0.)
        ~err2:(Array.make 2 0.) ~tx:0. ~ty:0. ~tz:0. chain ~theta ~dtheta
        ~coeffs:(Array.make 2 0.) ~stride:2 ~lo:(-1) ~hi:2);
  expect "short err2" (fun () ->
      Fk.speculate_range_into ~scratch ~pos:(Array.make 6 0.)
        ~err2:[| 0. |] ~tx:0. ~ty:0. ~tz:0. chain ~theta ~dtheta
        ~coeffs:(Array.make 2 0.) ~stride:2 ~lo:0 ~hi:2)

(* ---- speculation kernel: the C fold, bit for bit ----

   The per-link candidate fold of [Fk.speculate_range_into],
   [positions_many_into] and [score_rows_into] runs in C (fk_stubs.c).
   [ref_sweep] is the OCaml fold it replaced, kept here as the reference
   together with the wrappers' tool seeding and base fold: the kernels
   must write exactly its bits into every [pos] and [err2] slot — the
   candidates' positions, scores, argmin winners and so every solver
   reply depend on them.  Slots outside [lo, hi) keep their sentinel
   fill.  Chains mix revolute and prismatic joints, zero-length links and
   random affine base/tool transforms; angles come from bands that
   straddle glibc's sin/cos branch points (2⁻²⁷, 2⁻²⁶, 0.855, 2.426)
   and run to 1e3 and 1e6, signed zeros included. *)

let band_value rng bands =
  let mag =
    match Rng.int rng bands with
    | 0 -> 0.
    | 1 -> Rng.uniform rng 0. 2e-8
    | 2 -> Rng.uniform rng 0. 0.86
    | 3 -> Rng.uniform rng 0.84 2.43
    | 4 -> Rng.uniform rng 2.4 1e3
    | _ -> Rng.uniform rng 1e3 1e6
  in
  if Rng.int rng 2 = 0 then mag else -.mag

let random_affine rng =
  if Rng.int rng 3 = 0 then Mat4.identity ()
  else
    Array.init 16 (fun i ->
        if i < 12 then Rng.uniform rng (-2.) 2. else if i = 15 then 1. else 0.)

let exact_chain rng dof =
  let links =
    Array.init dof (fun i ->
        let zero_length = Rng.int rng 5 = 0 in
        let dh =
          Dh.make
            ~a:(if zero_length then 0. else Rng.uniform rng (-0.5) 0.5)
            ~alpha:(if Rng.int rng 4 = 0 then 0. else Rng.uniform rng (-.pi) pi)
            ~d:(if zero_length then 0. else Rng.uniform rng (-0.3) 0.3)
            ~theta:(band_value rng 6) ()
        in
        let joint =
          if Rng.int rng 3 = 0 then Joint.prismatic () else Joint.revolute ()
        in
        { Chain.name = Printf.sprintf "j%d" (i + 1); joint; dh })
  in
  Chain.make ~base:(random_affine rng) ~tool:(random_affine rng) links

(* The OCaml candidate fold the C stubs replaced: its loop body verbatim,
   with the link constants read from the chain (the values the compiled
   table holds) and the joint value from [q k i].  Seeds [lo, hi) with
   the tool translation first. *)
let ref_sweep chain ~q ~pos ~stride ~lo ~hi =
  let tool = Chain.tool chain in
  for k = lo to hi - 1 do
    pos.(k) <- tool.(3);
    pos.(stride + k) <- tool.(7);
    pos.((2 * stride) + k) <- tool.(11)
  done;
  for i = Chain.dof chain - 1 downto 0 do
    let { Chain.joint; dh; _ } = Chain.link chain i in
    let ca = cos dh.Dh.alpha and sa = sin dh.Dh.alpha in
    let a = dh.Dh.a and d0 = dh.Dh.d and t0 = dh.Dh.theta in
    let is_rev = joint.Joint.kind = Joint.Revolute in
    for k = lo to hi - 1 do
      let qk = q k i in
      let tv = if is_rev then t0 +. qk else t0 in
      let d = if is_rev then d0 else d0 +. qk in
      let ct = cos tv and st = sin tv in
      let x = pos.(k) and y = pos.(stride + k) and z = pos.((2 * stride) + k) in
      let w = x +. a in
      let u = (ca *. y) -. (sa *. z) in
      pos.(k) <- (ct *. w) -. (st *. u);
      pos.(stride + k) <- (st *. w) +. (ct *. u);
      pos.((2 * stride) + k) <- (sa *. y) +. (ca *. z) +. d
    done
  done

(* The wrappers' base fold, with the squared error to target [t k] when
   [err2] is given. *)
let ref_base chain ~pos ~stride ~lo ~hi ?err2 t =
  let b = Chain.base chain in
  for k = lo to hi - 1 do
    let x = pos.(k) and y = pos.(stride + k) and z = pos.((2 * stride) + k) in
    let fx = (b.(0) *. x) +. (b.(1) *. y) +. (b.(2) *. z) +. b.(3) in
    let fy = (b.(4) *. x) +. (b.(5) *. y) +. (b.(6) *. z) +. b.(7) in
    let fz = (b.(8) *. x) +. (b.(9) *. y) +. (b.(10) *. z) +. b.(11) in
    pos.(k) <- fx;
    pos.(stride + k) <- fy;
    pos.((2 * stride) + k) <- fz;
    match err2 with
    | None -> ()
    | Some e ->
      let tx, ty, tz = t k in
      let dx = tx -. fx and dy = ty -. fy and dz = tz -. fz in
      e.(k) <- ((dx *. dx) +. (dy *. dy)) +. (dz *. dz)
  done

let same_bits what want got =
  Array.iteri
    (fun i w ->
      let g = got.(i) in
      if not (bits w = bits g || (Float.is_nan w && Float.is_nan g)) then
        Alcotest.failf "%s slot %d: C fold %h, OCaml fold %h" what i g w)
    want

(* A random chain, [count] = 1..130 candidates and a random, possibly
   empty, range [lo, hi) of them. *)
let exact_case seed =
  let rng = Rng.create seed in
  let dof = 1 + Rng.int rng 100 in
  let chain = exact_chain rng dof in
  let count = 1 + Rng.int rng 130 in
  let lo, hi =
    if Rng.int rng 4 = 0 then (0, count)
    else
      let lo = Rng.int rng (count + 1) in
      (lo, lo + Rng.int rng (count - lo + 1))
  in
  (rng, chain, count, lo, hi)

let sentinel = 1234.5

let test_exact_speculate =
  QCheck.Test.make
    ~name:
      "C fold = OCaml fold, bitwise: speculate_range_into, positions_many_into"
    ~count:300 QCheck.(int_bound 999_999) (fun seed ->
      let rng, chain, count, lo, hi = exact_case seed in
      let dof = Chain.dof chain in
      let theta = Array.init dof (fun _ -> band_value rng 6) in
      let dtheta = Array.init dof (fun _ -> band_value rng 6) in
      let coeffs = Array.init count (fun _ -> band_value rng 4) in
      let tx = Rng.uniform rng (-3.) 3.
      and ty = Rng.uniform rng (-3.) 3.
      and tz = Rng.uniform rng (-3.) 3. in
      let scratch = Fk.make_scratch () in
      let pos = Array.make (3 * count) sentinel in
      let err2 = Array.make count sentinel in
      Fk.speculate_range_into ~scratch ~pos ~err2 ~tx ~ty ~tz chain ~theta
        ~dtheta ~coeffs ~stride:count ~lo ~hi;
      let want_pos = Array.make (3 * count) sentinel in
      let want_err2 = Array.make count sentinel in
      let q k i = (coeffs.(k) *. dtheta.(i)) +. theta.(i) in
      ref_sweep chain ~q ~pos:want_pos ~stride:count ~lo ~hi;
      ref_base chain ~pos:want_pos ~stride:count ~lo ~hi ~err2:want_err2
        (fun _ -> (tx, ty, tz));
      same_bits "pos" want_pos pos;
      same_bits "err2" want_err2 err2;
      (* every candidate, into a buffer with slack past 3·count *)
      let dst = Array.make ((3 * count) + 2) sentinel in
      Fk.positions_many_into ~scratch ~dst chain ~theta ~dtheta ~coeffs ~count;
      let want = Array.make ((3 * count) + 2) sentinel in
      ref_sweep chain ~q ~pos:want ~stride:count ~lo:0 ~hi:count;
      ref_base chain ~pos:want ~stride:count ~lo:0 ~hi:count (fun _ ->
          (0., 0., 0.));
      same_bits "dst" want dst;
      true)

let test_exact_score_rows =
  QCheck.Test.make ~name:"C fold = OCaml fold, bitwise: score_rows_into"
    ~count:300 QCheck.(int_bound 999_999) (fun seed ->
      let rng, chain, count, lo, hi = exact_case seed in
      let dof = Chain.dof chain in
      let tstride = dof + Rng.int rng 4 in
      let thetas = Array.init (count * tstride) (fun _ -> band_value rng 6) in
      let target () = Array.init count (fun _ -> Rng.uniform rng (-3.) 3.) in
      let txs = target () and tys = target () and tzs = target () in
      let scratch = Fk.make_scratch () in
      let pos = Array.make (3 * count) sentinel in
      let err2 = Array.make count sentinel in
      Fk.score_rows_into ~scratch ~pos ~err2 ~txs ~tys ~tzs chain ~thetas
        ~tstride ~stride:count ~lo ~hi;
      let want_pos = Array.make (3 * count) sentinel in
      let want_err2 = Array.make count sentinel in
      let q k i = thetas.((k * tstride) + i) in
      ref_sweep chain ~q ~pos:want_pos ~stride:count ~lo ~hi;
      ref_base chain ~pos:want_pos ~stride:count ~lo ~hi ~err2:want_err2
        (fun k -> (txs.(k), tys.(k), tzs.(k)));
      same_bits "pos" want_pos pos;
      same_bits "err2" want_err2 err2;
      true)

(* ---- the frames pass: the C loop, bit for bit ----

   [Fk.frames_into]'s link loop runs in C (fk_stubs.c).  [ref_frames] is
   the OCaml loop it replaced, kept as the reference: each link's DH
   transform built as its [local_into] built it (from the chain's
   constants, the values the compiled table holds), folded with
   [Mat4.mul_affine_into], the tool product through a buffer of its own.
   Every solver iteration starts from these frames, so they must match
   bit for bit, on the bit-exact section's chains and angle bands. *)
let ref_frames chain q =
  let n = Chain.dof chain in
  let dst = Array.init (n + 1) (fun _ -> Array.make 16 sentinel) in
  let local = Mat4.identity () and tmp = Mat4.identity () in
  let local_into i =
    let { Chain.joint; dh; _ } = Chain.link chain i in
    let ca = cos dh.Dh.alpha and sa = sin dh.Dh.alpha and a = dh.Dh.a in
    let theta, d =
      match joint.Joint.kind with
      | Joint.Revolute -> (dh.Dh.theta +. q.(i), dh.Dh.d)
      | Joint.Prismatic -> (dh.Dh.theta, dh.Dh.d +. q.(i))
    in
    let ct = cos theta and st = sin theta in
    local.(0) <- ct;
    local.(1) <- -.st *. ca;
    local.(2) <- st *. sa;
    local.(3) <- a *. ct;
    local.(4) <- st;
    local.(5) <- ct *. ca;
    local.(6) <- -.ct *. sa;
    local.(7) <- a *. st;
    local.(8) <- 0.;
    local.(9) <- sa;
    local.(10) <- ca;
    local.(11) <- d;
    local.(12) <- 0.;
    local.(13) <- 0.;
    local.(14) <- 0.;
    local.(15) <- 1.
  in
  Mat4.blit (Chain.base chain) dst.(0);
  for i = 0 to n - 2 do
    local_into i;
    Mat4.mul_affine_into ~dst:dst.(i + 1) dst.(i) local
  done;
  local_into (n - 1);
  Mat4.mul_affine_into ~dst:tmp dst.(n - 1) local;
  Mat4.mul_affine_into ~dst:dst.(n) tmp (Chain.tool chain);
  dst

(* One scratch across cases, so the compiled table also switches chains;
   [dst] has a spare frame past [dof], which the pass must not touch. *)
let test_exact_frames =
  let scratch = Fk.make_scratch () in
  QCheck.Test.make ~name:"C frames_into = OCaml frames loop, bitwise"
    ~count:300 QCheck.(int_bound 999_999) (fun seed ->
      let rng = Rng.create seed in
      let chain = exact_chain rng (1 + Rng.int rng 100) in
      let dof = Chain.dof chain in
      let q = Array.init dof (fun _ -> band_value rng 6) in
      let dst = Array.init (dof + 2) (fun _ -> Array.make 16 sentinel) in
      Fk.frames_into ~scratch ~dst chain q;
      let want = ref_frames chain q in
      Array.iteri
        (fun i w -> same_bits (Printf.sprintf "frame %d" i) w dst.(i))
        want;
      same_bits "spare frame" (Array.make 16 sentinel) dst.(dof + 1);
      true)

let test_frames_validation () =
  let chain = Robots.eval_chain ~dof:3 in
  let scratch = Fk.make_scratch () and q = Array.make 3 0.1 in
  let frames () = Array.init 4 (fun _ -> Array.make 16 0.) in
  let expect what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  expect "short dst" (fun () ->
      Fk.frames_into ~scratch ~dst:(Array.sub (frames ()) 0 3) chain q);
  expect "frame of 12 floats" (fun () ->
      let dst = frames () in
      dst.(2) <- Array.make 12 0.;
      Fk.frames_into ~scratch ~dst chain q);
  expect "frame of 17 floats" (fun () ->
      let dst = frames () in
      dst.(0) <- Array.make 17 0.;
      Fk.frames_into ~scratch ~dst chain q);
  expect "neighbours share a buffer" (fun () ->
      let dst = frames () in
      dst.(3) <- dst.(2);
      Fk.frames_into ~scratch ~dst chain q);
  expect "last frame is the tool" (fun () ->
      let dst = frames () in
      dst.(3) <- Chain.tool chain;
      Fk.frames_into ~scratch ~dst chain q);
  expect "wrong q length" (fun () ->
      Fk.frames_into ~scratch ~dst:(frames ()) chain (Array.make 2 0.))

(* ---- filtered speculation: speculate_argmin ----

   [Fk.speculate_argmin] must return exactly the first-index argmin of
   the err² [speculate_range_into] writes over the same range: the winner
   decides θ, the iteration count and every reply byte.  Cases reuse the
   bit-exact section's chains (mixed joints, zero-length links, random
   affine base and tool) and angle bands, out to 1e6 and with products
   past the fast path's 2²⁰ range; coefficients repeat (exact ties),
   vanish, or form one of Quick-IK's step-size ladders, exact or
   perturbed by one ulp or by far more than rounding; Δθ may be zero or
   tiny (near-ties inside the bound); θ may be non-finite, or lie near
   ±2²⁰, where the angles' rounding dwarfs the fold's.  Those cases and
   half the others sweep 16–64 candidates from a nonzero start, the
   range where a ladder folds by angle addition. *)

(* [Quick_ik]'s ladders over [max] candidates, in its operation order. *)
let uniform_ladder ~max alpha =
  Array.init max (fun k -> float_of_int (k + 1) /. float_of_int max *. alpha)

let extended_ladder ~max factor alpha =
  Array.init max (fun k ->
      float_of_int (k + 1) /. float_of_int max *. factor *. alpha)

let log_ladder ~max alpha =
  let m = float_of_int max in
  let ratio = (1. /. m) ** (1. /. (m -. 1.)) in
  Array.init max (fun k -> alpha *. (ratio ** (m -. float_of_int (k + 1))))

let filter_coeffs rng ~count ~lo ~hi =
  let alpha = band_value rng 4 in
  let perturb c step =
    for _ = 0 to Rng.int rng 3 do
      let k = if hi > lo then lo + Rng.int rng (hi - lo) else 0 in
      c.(k) <- step c.(k)
    done;
    c
  in
  match Rng.int rng 8 with
  | 0 -> uniform_ladder ~max:count alpha
  | 1 ->
    let factors = [| 0.5; 1.5; 2.; 3.7 |] in
    extended_ladder ~max:count factors.(Rng.int rng 4) alpha
  | 2 ->
    perturb (uniform_ladder ~max:count alpha) (fun c ->
        if Rng.int rng 2 = 0 then Float.succ c else Float.pred c)
  | 3 ->
    perturb (uniform_ladder ~max:count alpha) (fun c ->
        c *. (1. +. (10. ** -.float_of_int (2 + Rng.int rng 8))))
  | 4 -> log_ladder ~max:count alpha
  | 5 ->
    let c = Array.init count (fun _ -> band_value rng 3) in
    for k = 0 to count - 1 do
      if Rng.int rng 3 = 0 then c.(k) <- c.(Rng.int rng count)
    done;
    c
  | _ -> Array.init count (fun _ -> band_value rng (1 + Rng.int rng 4))

let filter_case seed =
  let rng, chain, count, lo, hi = exact_case seed in
  let edge = Rng.int rng 4 = 0 in
  let count, lo, hi =
    if edge || Rng.int rng 2 = 0 then
      let lo = 1 + Rng.int rng 40 and len = 16 + Rng.int rng 49 in
      (lo + len + Rng.int rng 8, lo, lo + len)
    else if lo < hi then (count, lo, hi)
    else (count, 0, count)
  in
  let coeffs = filter_coeffs rng ~count ~lo ~hi in
  (* revolute angles just inside ±2²⁰ (|θ₀ᵢ| + |θᵢ| below it by 4 to
     64), with steps that move an angle by less than its rounding
     (2⁻³³): the exact sweep's candidates tie there, while a ladder's
     block offsets still turn them.  On at most 16 links with every
     twist zeroed, and steps of one sign, the links' turns add up at the
     tool, well past the bound's other terms. *)
  let chain =
    if not edge then chain
    else
      let links = Chain.links chain in
      Chain.make ~base:(Chain.base chain) ~tool:(Chain.tool chain)
        (Array.map
           (fun (l : Chain.link) -> { l with dh = { l.dh with Dh.alpha = 0. } })
           (Array.sub links 0 (min (Array.length links) (1 + Rng.int rng 16))))
  in
  let dof = Chain.dof chain in
  let theta =
    Array.init dof (fun i ->
        let { Chain.joint; dh; _ } = (Chain.links chain).(i) in
        match joint.Joint.kind with
        | Joint.Revolute when edge ->
          (if Rng.int rng 2 = 0 then 1. else -1.)
          *. (0x1p20 -. Float.abs dh.Dh.theta -. Rng.uniform rng 4. 64.)
        | Joint.Prismatic when edge -> band_value rng 3
        | Joint.Revolute | Joint.Prismatic -> band_value rng (1 + Rng.int rng 6))
  in
  let dtheta =
    if edge then begin
      let cmax = ref 0. in
      for k = lo to hi - 1 do
        cmax := Float.max !cmax (Float.abs coeffs.(k))
      done;
      let step = if !cmax > 0. then 0x1p-33 /. !cmax else 0. in
      let step = if Rng.int rng 2 = 0 then step else -.step in
      Array.init dof (fun _ -> step *. Rng.uniform rng 0.5 1.)
    end
    else
      match Rng.int rng 6 with
      | 0 -> Array.make dof 0.
      | 1 ->
        let scale = 10. ** -.float_of_int (6 + Rng.int rng 9) in
        Array.init dof (fun _ -> scale *. Rng.uniform rng (-1.) 1.)
      | _ -> Array.init dof (fun _ -> band_value rng (1 + Rng.int rng 5))
  in
  if Rng.int rng 10 = 0 then
    theta.(Rng.int rng dof) <-
      (match Rng.int rng 3 with 0 -> nan | 1 -> infinity | _ -> neg_infinity);
  let tx = Rng.uniform rng (-3.) 3.
  and ty = Rng.uniform rng (-3.) 3.
  and tz = Rng.uniform rng (-3.) 3. in
  (chain, theta, dtheta, coeffs, count, lo, hi, (tx, ty, tz))

(* Quick-IK's scan over the exact sweep's err²: the reference winner. *)
let exact_winner chain ~theta ~dtheta ~coeffs ~count ~lo ~hi (tx, ty, tz) =
  let pos = Array.make (3 * count) sentinel
  and err2 = Array.make count sentinel in
  Fk.speculate_range_into ~scratch:(Fk.make_scratch ()) ~pos ~err2 ~tx ~ty
    ~tz chain ~theta ~dtheta ~coeffs ~stride:count ~lo ~hi;
  let best = ref lo in
  for k = lo + 1 to hi - 1 do
    if err2.(k) < err2.(!best) then best := k
  done;
  !best

let filtered_winner scratch chain ~theta ~dtheta ~coeffs ~count ~lo ~hi
    (tx, ty, tz) =
  let pos = Array.make (3 * count) sentinel
  and err2 = Array.make count sentinel in
  Fk.speculate_argmin ~scratch ~pos ~err2 ~tx ~ty ~tz chain ~theta ~dtheta
    ~coeffs ~stride:count ~lo ~hi

let test_argmin_matches_exact =
  QCheck.Test.make
    ~name:"speculate_argmin = first-index argmin of speculate_range_into"
    ~count:1000 QCheck.(int_bound 999_999) (fun seed ->
      let chain, theta, dtheta, coeffs, count, lo, hi, t = filter_case seed in
      let want = exact_winner chain ~theta ~dtheta ~coeffs ~count ~lo ~hi t in
      let got =
        filtered_winner (Fk.make_scratch ()) chain ~theta ~dtheta ~coeffs
          ~count ~lo ~hi t
      in
      if got <> want then
        Alcotest.failf "seed %d: filtered winner %d, exact winner %d" seed got
          want;
      true)

(* The ways a filtered sweep ends, each seen through the scratch's counts
   and each agreeing with the exact winner: a fast-path winner folded by
   angle addition over a Uniform ladder (also from a nonzero start with a
   partial last block), a Log_spaced ladder that keeps the per-candidate
   sincos, an exact re-score forced by duplicated coefficients (identical
   candidates tie exactly), a tie across the whole range, and a declined
   sweep whose angles pass 2²⁰. *)
let test_argmin_paths () =
  let chain = Robots.eval_chain ~dof:30 in
  let theta = Array.init 30 (fun i -> 0.1 +. (0.01 *. float_of_int i)) in
  let dtheta = Array.init 30 (fun i -> 0.02 -. (0.001 *. float_of_int i)) in
  let count = 64 and t = (3., 2., 1.) in
  let ladder = uniform_ladder ~max:count 2. in
  let run ?(lo = 0) ?(hi = count) ~theta ~coeffs () =
    let scratch = Fk.make_scratch () in
    let got =
      filtered_winner scratch chain ~theta ~dtheta ~coeffs ~count ~lo ~hi t
    in
    Alcotest.(check int) "filtered = exact winner"
      (exact_winner chain ~theta ~dtheta ~coeffs ~count ~lo ~hi t)
      got;
    Fk.filter_counts scratch
  in
  let counts name want c =
    Alcotest.(check (list int))
      (name ^ ": sweeps, ladders, rescores, declined")
      want
      [ c.Fk.sweeps; c.Fk.ladders; c.Fk.rescores; c.Fk.declined ]
  in
  counts "ladder" [ 1; 1; 0; 0 ] (run ~theta ~coeffs:ladder ());
  counts "ladder over [5, 26)" [ 1; 1; 0; 0 ]
    (run ~lo:5 ~hi:26 ~theta ~coeffs:ladder ());
  counts "15 candidates" [ 1; 0; 0; 0 ]
    (run ~lo:5 ~hi:20 ~theta ~coeffs:ladder ());
  counts "Log_spaced" [ 1; 0; 0; 0 ]
    (run ~theta ~coeffs:(log_ladder ~max:count 2.) ());
  (* every candidate twice: the winner ties with its twin.  Twins still
     fold by angle addition: c_{8q+p} - c_p depends on q alone. *)
  let twins = Array.init count (fun k -> ladder.(k / 2)) in
  counts "re-score" [ 1; 1; 1; 0 ] (run ~theta ~coeffs:twins ());
  counts "whole-range tie" [ 1; 1; 1; 0 ]
    (run ~theta ~coeffs:(Array.make count 0.5) ());
  let far = Array.map (fun q -> q +. 2e6) theta in
  counts "declined" [ 1; 0; 0; 1 ] (run ~theta:far ~coeffs:ladder ())

(* The filter's bound assumes the inlined sincos is within 2u of sin and
   cos and glibc within 1u (u = 2⁻⁵³; DESIGN.md §9), so the two may differ
   by 3u.  10⁷ arguments over the fast range: uniform up to 2²⁰, small
   magnitudes down to 2⁻⁶⁰, ±1e-6 around multiples of π/4 (where the
   reduction cancels) and the range edge, with the angle's rounding past
   2²⁰, both signs. *)
let test_fast_sincos_accuracy () =
  let rng = Rng.create 2024 in
  let chunk = 100_000 in
  let x = Array.make chunk 0. in
  let s = Array.make chunk 0. and c = Array.make chunk 0. in
  let bound = 3. *. epsilon_float /. 2. in
  let worst = ref 0. and worst_x = ref 0. in
  for round = 0 to 99 do
    for i = 0 to chunk - 1 do
      let v =
        match (round + i) mod 4 with
        | 0 -> Rng.uniform rng 0. 0x1p20
        | 1 -> ldexp (Rng.uniform rng 0. 1.) (-Rng.int rng 61)
        | 2 ->
          (float_of_int (Rng.int rng 1_335_088) *. (pi /. 4.))
          +. Rng.uniform rng (-1e-6) 1e-6
        | _ -> 0x1p20 +. Rng.uniform rng (-1e-3) 0x1p-30
      in
      x.(i) <- (if Rng.int rng 2 = 0 then v else -.v)
    done;
    Fk.fast_sincos_into ~x ~sin:s ~cos:c;
    for i = 0 to chunk - 1 do
      let d =
        Float.max (Float.abs (s.(i) -. sin x.(i))) (Float.abs (c.(i) -. cos x.(i)))
      in
      if not (d <= !worst) then begin
        worst := d;
        worst_x := x.(i)
      end
    done
  done;
  if not (!worst <= bound) then
    Alcotest.failf "fast sincos differs from glibc by %.3fu at x = %h"
      (!worst /. (epsilon_float /. 2.))
      !worst_x;
  (* past the range its octant's int conversion would be undefined *)
  List.iter
    (fun v ->
      Alcotest.check_raises (Printf.sprintf "refuses %h" v)
        (Invalid_argument "Fk.fast_sincos_into: argument non-finite or past 2^21")
        (fun () -> Fk.fast_sincos_into ~x:[| 0.5; v |] ~sin:s ~cos:c))
    [ nan; infinity; neg_infinity; 0x1.0000000000001p21; -1e10 ]

let test_chain_rejects_non_affine () =
  let bad = Mat4.identity () in
  bad.(12) <- 0.5;
  let links = [| { Chain.name = "j1"; joint = Joint.revolute (); dh = Dh.make ~a:1. () } |] in
  Alcotest.check_raises "non-affine base"
    (Invalid_argument "Chain.make: base must be affine (bottom row [0 0 0 1])")
    (fun () -> ignore (Chain.make ~base:bad links));
  Alcotest.check_raises "non-affine tool"
    (Invalid_argument "Chain.make: tool must be affine (bottom row [0 0 0 1])")
    (fun () -> ignore (Chain.make ~tool:bad links))

let () =
  Alcotest.run "dadu_kinematics"
    [
      ( "fk-differential",
        [
          qcheck test_fk_scratch_differential;
          qcheck test_frames_scratch_differential;
          qcheck test_jacobian_into_differential;
          Alcotest.test_case "zero-length links" `Quick test_fk_zero_length_links;
          Alcotest.test_case "joint-limit boundary angles" `Quick
            test_fk_limit_boundaries;
          Alcotest.test_case "scratch reuse across chains" `Quick
            test_fk_scratch_across_chains;
          Alcotest.test_case "Chain.make rejects non-affine" `Quick
            test_chain_rejects_non_affine;
          qcheck test_exact_frames;
          Alcotest.test_case "frames_into argument validation" `Quick
            test_frames_validation;
        ] );
      ( "speculation-kernel",
        [
          qcheck test_positions_many_differential;
          qcheck test_speculate_matches_positions_many;
          qcheck test_speculate_partition_bit_identical;
          Alcotest.test_case "zero coefficients" `Quick
            test_positions_many_zero_coeff;
          Alcotest.test_case "argument validation" `Quick
            test_speculate_validation;
          qcheck test_exact_speculate;
          qcheck test_exact_score_rows;
        ] );
      ( "filtered-sweep",
        [
          qcheck test_argmin_matches_exact;
          Alcotest.test_case "fast path, re-score, declined" `Quick
            test_argmin_paths;
          Alcotest.test_case "inlined sincos within 3u of glibc" `Quick
            test_fast_sincos_accuracy;
        ] );
      ( "joint",
        [
          Alcotest.test_case "clamp" `Quick test_joint_clamp;
          Alcotest.test_case "inside" `Quick test_joint_inside;
          Alcotest.test_case "unbounded" `Quick test_joint_unbounded;
          Alcotest.test_case "span" `Quick test_joint_span;
          Alcotest.test_case "bad limits" `Quick test_joint_bad_limits;
        ] );
      ( "dh",
        [
          Alcotest.test_case "identity" `Quick test_dh_identity;
          Alcotest.test_case "revolute variable" `Quick test_dh_revolute_variable;
          Alcotest.test_case "prismatic variable" `Quick test_dh_prismatic_variable;
          Alcotest.test_case "link length" `Quick test_dh_link_length;
          Alcotest.test_case "transform_into" `Quick test_dh_transform_into_matches;
          qcheck test_dh_rigid;
        ] );
      ( "chain",
        [
          Alcotest.test_case "dof" `Quick test_chain_dof;
          Alcotest.test_case "empty" `Quick test_chain_empty;
          Alcotest.test_case "reach" `Quick test_chain_reach;
          Alcotest.test_case "clamp_config" `Quick test_chain_clamp_config;
          Alcotest.test_case "check_config" `Quick test_chain_check_config;
          Alcotest.test_case "base copied" `Quick test_chain_base_tool_copied;
        ] );
      ( "fk",
        [
          Alcotest.test_case "two-link straight" `Quick test_fk_two_link_zero;
          Alcotest.test_case "two-link elbow" `Quick test_fk_two_link_elbow;
          Alcotest.test_case "planar angle-sum" `Quick test_fk_planar_angle_sum;
          Alcotest.test_case "frames shape" `Quick test_fk_frames_shape;
          Alcotest.test_case "pose matches position" `Quick test_fk_pose_matches_position;
          Alcotest.test_case "scratch equivalence" `Quick test_fk_scratch_equivalence;
          Alcotest.test_case "tool transform" `Quick test_fk_tool;
          Alcotest.test_case "prismatic joint" `Quick test_fk_prismatic;
          Alcotest.test_case "flops monotone" `Quick test_fk_flops_positive;
          qcheck test_fk_within_reach;
          qcheck test_fk_pose_rigid;
        ] );
      ( "jacobian",
        [
          qcheck test_jacobian_matches_numerical;
          qcheck test_jacobian_matches_central_fd;
          Alcotest.test_case "scara vs numerical" `Quick
            test_jacobian_matches_numerical_prismatic;
          Alcotest.test_case "planar z-row" `Quick test_jacobian_planar_z_row_zero;
          Alcotest.test_case "full top rows" `Quick test_full_jacobian_top_matches;
          Alcotest.test_case "full angular part" `Quick test_full_jacobian_angular_revolute;
          Alcotest.test_case "of_frames variant" `Quick test_jacobian_of_frames_matches;
          Alcotest.test_case "frame count" `Quick test_jacobian_frame_count;
        ] );
      ( "robots",
        [
          Alcotest.test_case "factory dofs" `Quick test_robots_dofs;
          Alcotest.test_case "eval link length" `Quick test_robots_eval_chain_link_length;
          Alcotest.test_case "scara prismatic" `Quick test_robots_scara_prismatic;
          Alcotest.test_case "snake limits" `Quick test_robots_snake_limits;
          Alcotest.test_case "random deterministic" `Quick test_robots_random_deterministic;
          Alcotest.test_case "invalid dof" `Quick test_robots_invalid_dof;
        ] );
      ( "target",
        [
          qcheck test_target_reachable;
          Alcotest.test_case "config within limits" `Quick test_target_config_within_limits;
          Alcotest.test_case "batch size" `Quick test_target_batch_size;
          Alcotest.test_case "unreachable outside" `Quick test_target_unreachable_outside;
        ] );
      ( "chain-format",
        [
          Alcotest.test_case "parse" `Quick test_format_parse;
          Alcotest.test_case "round trip" `Quick test_format_roundtrip;
          Alcotest.test_case "errors" `Quick test_format_errors;
          Alcotest.test_case "comments and blanks" `Quick test_format_comments_and_blanks;
          Alcotest.test_case "parse file" `Quick test_format_parse_file;
          Alcotest.test_case "missing file" `Quick test_format_missing_file;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "singular manipulability" `Quick
            test_workspace_manipulability_singular;
          Alcotest.test_case "positive manipulability" `Quick
            test_workspace_manipulability_positive;
          Alcotest.test_case "condition >= 1" `Quick test_workspace_condition_ge_one;
          Alcotest.test_case "sample stats" `Quick test_workspace_sample;
          Alcotest.test_case "eval chain conditioning" `Slow
            test_workspace_low_twist_worse_conditioned;
          Alcotest.test_case "manipulability ellipsoid" `Quick test_workspace_ellipsoid;
        ] );
      ( "viz",
        [
          Alcotest.test_case "structure" `Quick test_viz_structure;
          Alcotest.test_case "empty rejected" `Quick test_viz_empty_rejected;
          Alcotest.test_case "points within canvas" `Quick test_viz_points_within_canvas;
          Alcotest.test_case "write" `Quick test_viz_write;
        ] );
      ( "traj",
        [
          Alcotest.test_case "line" `Quick test_traj_line;
          Alcotest.test_case "circle radius/plane" `Quick test_traj_circle_radius;
          Alcotest.test_case "circle orthogonality" `Quick test_traj_circle_plane_orthogonal;
          Alcotest.test_case "arc length" `Quick test_traj_arc_length_line;
          Alcotest.test_case "lissajous bounds" `Quick test_traj_lissajous_bounds;
          Alcotest.test_case "invalid inputs" `Quick test_traj_invalid;
        ] );
    ]
