(* End-to-end scenarios spanning multiple libraries: trajectory tracking,
   accelerator runs on named robots, and full experiment plumbing. *)

open Dadu_linalg
open Dadu_kinematics
open Dadu_core
module Rng = Dadu_util.Rng

let accuracy = Ik.default_config.Ik.accuracy

(* Trajectory tracking: solve IK along a workspace path, warm-starting each
   waypoint from the previous solution — the usage pattern of the
   trajectory example. *)
let track chain solve path theta0 =
  let theta = ref (Vec.copy theta0) in
  Array.map
    (fun target ->
      let p = Ik.problem ~chain ~target ~theta0:!theta in
      let r = solve p in
      theta := r.Ik.theta;
      r)
    path

let test_trajectory_tracking_arm7 () =
  let chain = Robots.arm_7dof () in
  (* a modest circle in front of the arm, well inside the workspace *)
  let center = Vec3.make 0.45 0. 0.35 in
  let path = Traj.circle ~center ~radius:0.12 ~normal:(Vec3.make 0. 1. 0.2) ~samples:24 in
  let theta0 = Array.make 7 0.3 in
  let results =
    track chain (fun p -> Dls.solve ~config:{ Ik.default_config with max_iterations = 2000 } p) path theta0
  in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "waypoint %d converged (err %.4f)" i r.Ik.error)
        true
        (r.Ik.status = Ik.Converged))
    results;
  (* warm starts should make later waypoints cheap *)
  let later =
    Array.to_list results |> List.filteri (fun i _ -> i > 0)
    |> List.map (fun r -> r.Ik.iterations)
  in
  Alcotest.(check bool) "warm starts converge quickly" true
    (List.for_all (fun i -> i < 500) later)

let test_trajectory_tracking_quick_ik_snake () =
  let chain = Robots.snake ~dof:30 in
  let rng = Rng.create 99 in
  (* anchor the path around a known-reachable point *)
  let anchor = Fk.position chain (Target.random_config rng chain) in
  let path =
    Traj.line ~from:anchor
      ~to_:(Vec3.add anchor (Vec3.make 0.05 (-0.05) 0.03))
      ~samples:10
  in
  let theta0 = Target.random_config rng chain in
  let results =
    track chain (fun p -> Quick_ik.solve ~speculations:32 p) path theta0
  in
  Array.iter
    (fun r -> Alcotest.(check bool) "snake waypoint" true (r.Ik.status = Ik.Converged))
    results

let test_ikacc_on_snake () =
  let chain = Robots.snake ~dof:50 in
  let rng = Rng.create 100 in
  let p = Ik.random_problem rng chain in
  let report = Dadu_accel.Ikacc.solve ~speculations:64 p in
  Alcotest.(check bool) "converged" true
    (report.Dadu_accel.Ikacc.result.Ik.status = Ik.Converged);
  Alcotest.(check bool) "cycle count sane" true
    (report.Dadu_accel.Ikacc.total_cycles > 0
    && report.Dadu_accel.Ikacc.time_s < 1.0);
  Alcotest.(check bool) "energy sane" true
    (report.Dadu_accel.Ikacc.energy.Dadu_accel.Energy.total_j > 0.)

let test_100dof_headline () =
  (* the abstract's headline scenario: a 100-DOF manipulator solved in
     real time, verified through FK *)
  let chain = Robots.eval_chain ~dof:100 in
  let rng = Rng.create 101 in
  let p = Ik.random_problem rng chain in
  let report = Dadu_accel.Ikacc.solve ~speculations:64 p in
  let r = report.Dadu_accel.Ikacc.result in
  Alcotest.(check bool) "converged" true (r.Ik.status = Ik.Converged);
  let err = Vec3.dist p.Ik.target (Fk.position chain r.Ik.theta) in
  Alcotest.(check bool) "FK confirms solution" true (err < accuracy);
  Alcotest.(check bool) "faster than the paper's 12 ms" true
    (report.Dadu_accel.Ikacc.time_s < 12e-3)

let test_multiple_solvers_reach_same_target () =
  (* redundant chains admit many solutions; all solvers must land within
     accuracy of the same target, not at the same angles *)
  let chain = Robots.arm_6dof () in
  let rng = Rng.create 102 in
  let p = Ik.random_problem rng chain in
  let config = { Ik.default_config with max_iterations = 3_000 } in
  List.iter
    (fun (name, solve) ->
      let r : Ik.result = solve config p in
      let err = Vec3.dist p.Ik.target (Fk.position chain r.Ik.theta) in
      Alcotest.(check bool) (name ^ " reaches target") true (err < accuracy))
    [
      ("quick-ik", fun config p -> Quick_ik.solve ~speculations:32 ~config p);
      ("jt-buss", fun config p -> Jt_buss.solve ~config p);
      ("pinv", fun config p -> Pinv_svd.solve ~config p);
      ("dls", fun config p -> Dls.solve ~config p);
      ("sdls", fun config p -> Sdls.solve ~config p);
      (* CCD is excluded here: on joint-limited 6-DOF arms it is prone to
         local minima — the known weakness the paper's related work cites;
         its own suite covers the chains where it is reliable. *)
    ]

let test_experiment_pipeline_smoke () =
  (* the full bench pipeline at minimum scale: measurements -> table2 ->
     table3 -> ablation *)
  let scale =
    { Dadu_experiments.Runner.targets = 2; max_iterations = 300; speculations = 8; seed = 1 }
  in
  let m = Dadu_experiments.Measurements.collect ~dofs:[ 5 ] scale in
  let t2 = Dadu_experiments.Table2.compute m in
  let t3 = Dadu_experiments.Table3.compute m t2 in
  Alcotest.(check int) "t2 rows" 1 (List.length t2);
  Alcotest.(check int) "t3 rows" 1 (List.length t3);
  let ssus = Dadu_experiments.Ablation.run_ssus ~ssus:[ 4 ] ~dof:5 m in
  Alcotest.(check int) "ablation rows" 1 (List.length ssus)

let test_scara_pick_and_place () =
  (* SCARA working a pick-and-place line across its table *)
  let chain = Robots.scara () in
  let rng = Rng.create 104 in
  let from = Fk.position chain (Target.random_config rng chain) in
  let to_ = Fk.position chain (Target.random_config rng chain) in
  let path = Traj.line ~from ~to_ ~samples:8 in
  let theta0 = Target.random_config rng chain in
  let results = track chain (fun p -> Dls.solve p) path theta0 in
  Array.iter
    (fun r -> Alcotest.(check bool) "scara waypoint" true (r.Ik.status = Ik.Converged))
    results

let test_umbrella_library () =
  (* the Dadu.* re-exports are the documented entry point; exercise one
     call through each *)
  let chain = Dadu.Kinematics.Robots.arm_7dof () in
  let rng = Dadu.Util.Rng.create 1 in
  let p = Dadu.Core.Ik.random_problem rng chain in
  let r = Dadu.Core.Quick_ik.solve ~speculations:16 p in
  Alcotest.(check bool) "solves through the umbrella" true
    (r.Dadu.Core.Ik.status = Dadu.Core.Ik.Converged);
  let report = Dadu.Accel.Ikacc.solve ~speculations:16 p in
  Alcotest.(check bool) "accelerator through the umbrella" true
    (report.Dadu.Accel.Ikacc.time_s > 0.);
  Alcotest.(check (float 1e-9)) "platform constants" 10.
    Dadu.Platforms.Platform.atom.Dadu.Platforms.Platform.avg_power_w

let () =
  Alcotest.run "dadu_integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "7-DOF arm circle tracking" `Slow
            test_trajectory_tracking_arm7;
          Alcotest.test_case "30-DOF snake line tracking" `Slow
            test_trajectory_tracking_quick_ik_snake;
          Alcotest.test_case "IKAcc on 50-DOF snake" `Slow test_ikacc_on_snake;
          Alcotest.test_case "100-DOF headline" `Slow test_100dof_headline;
          Alcotest.test_case "all solvers reach target" `Slow
            test_multiple_solvers_reach_same_target;
          Alcotest.test_case "experiment pipeline smoke" `Quick
            test_experiment_pipeline_smoke;
          Alcotest.test_case "SCARA pick-and-place" `Quick test_scara_pick_and_place;
          Alcotest.test_case "umbrella library" `Quick test_umbrella_library;
        ] );
    ]
