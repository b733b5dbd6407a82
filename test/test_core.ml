(* Unit, integration, and property tests for Dadu_core: the IK solver
   suite. *)

open Dadu_linalg
open Dadu_kinematics
open Dadu_core
module Rng = Dadu_util.Rng

let qcheck = QCheck_alcotest.to_alcotest

(* Small chains keep solver tests fast; caps are generous enough that a
   healthy solver converges well before hitting them. *)
let cfg ?(max_iterations = 3_000) () = { Ik.default_config with max_iterations }

let eval12 = Robots.eval_chain ~dof:12

let problems ?(chain = eval12) ?(seed = 11) n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Ik.random_problem rng chain)

let assert_converged name (r : Ik.result) =
  Alcotest.(check bool)
    (name ^ ": converged (err " ^ string_of_float r.Ik.error ^ ")")
    true
    (r.Ik.status = Ik.Converged);
  Alcotest.(check bool) (name ^ ": error below accuracy") true
    (r.Ik.error < Ik.default_config.Ik.accuracy)

(* solution check straight from FK, independent of the solver's own
   bookkeeping *)
let assert_solves name (p : Ik.problem) (r : Ik.result) =
  let actual = Ik.error_of p.Ik.chain p.Ik.target r.Ik.theta in
  Alcotest.(check bool) (name ^ ": FK confirms the solution") true
    (actual < Ik.default_config.Ik.accuracy)

(* ---- Ik ---- *)

let test_ik_problem_validates () =
  Alcotest.(check bool) "wrong dof rejected" true
    (try
       ignore (Ik.problem ~chain:eval12 ~target:Vec3.zero ~theta0:[| 0. |]);
       false
     with Invalid_argument _ -> true)

let test_ik_problem_copies_theta0 () =
  let theta0 = Array.make 12 0.1 in
  let p = Ik.problem ~chain:eval12 ~target:Vec3.zero ~theta0 in
  theta0.(0) <- 99.;
  Alcotest.(check (float 1e-12)) "copied" 0.1 p.Ik.theta0.(0)

let test_ik_defaults () =
  Alcotest.(check (float 1e-12)) "accuracy 1e-2" 1e-2 Ik.default_config.Ik.accuracy;
  Alcotest.(check int) "cap 10k" 10_000 Ik.default_config.Ik.max_iterations;
  Alcotest.(check bool) "no stall detection" true
    (Ik.default_config.Ik.stall_iterations = None)

let test_ik_work () =
  let r =
    {
      Ik.theta = [||];
      error = 0.;
      iterations = 7;
      speculations = 64;
      status = Ik.Converged;
      svd_sweeps = 0;
    }
  in
  Alcotest.(check int) "work = specs*iters" 448 (Ik.work r)

let test_ik_error_of_zero () =
  let q = Array.make 12 0.3 in
  let target = Fk.position eval12 q in
  Alcotest.(check (float 1e-9)) "zero at exact solution" 0. (Ik.error_of eval12 target q)

(* ---- Loop ---- *)

let test_loop_immediate_convergence () =
  let q = Array.make 12 0.2 in
  let p = Ik.problem ~chain:eval12 ~target:(Fk.position eval12 q) ~theta0:q in
  let run config =
    Loop.run ~config ~workspace:(Workspace.create ~dof:12) ~speculations:1
      ~step:(fun _ -> Alcotest.fail "step must not run")
      p
  in
  let r = run Ik.default_config in
  Alcotest.(check int) "zero iterations" 0 r.Ik.iterations;
  Alcotest.(check bool) "converged" true (r.Ik.status = Ik.Converged);
  (* the accuracy test runs before the cap, so a zero cap still converges *)
  let r = run { Ik.default_config with max_iterations = 0 } in
  Alcotest.(check bool) "converged under a zero cap" true
    (r.Ik.status = Ik.Converged)

let test_loop_cap () =
  let p = List.hd (Array.to_list (problems 1)) in
  let count = ref 0 in
  let r =
    Loop.run
      ~config:{ Ik.default_config with max_iterations = 17 }
      ~workspace:(Workspace.create ~dof:12) ~speculations:1
      ~step:(fun ws ->
        incr count;
        Vec.blit ws.Workspace.theta ws.Workspace.theta_next;
        0)
      p
  in
  Alcotest.(check int) "step calls = cap" 17 !count;
  Alcotest.(check int) "iterations = cap" 17 r.Ik.iterations;
  Alcotest.(check bool) "status max-iterations" true (r.Ik.status = Ik.Max_iterations)

let test_loop_stall_detection () =
  let p = List.hd (Array.to_list (problems 1)) in
  let r =
    Loop.run
      ~config:{ Ik.default_config with max_iterations = 1000; stall_iterations = Some 5 }
      ~workspace:(Workspace.create ~dof:12) ~speculations:1
      ~step:(fun ws ->
        Vec.blit ws.Workspace.theta ws.Workspace.theta_next;
        0)
      p
  in
  Alcotest.(check bool) "stalled" true (r.Ik.status = Ik.Stalled);
  Alcotest.(check bool) "stopped early" true (r.Ik.iterations < 20);
  (* a solve whose error improves every iteration never stalls, even
     under the tightest limit *)
  let solve stall_iterations =
    Quick_ik.solve ~speculations:16
      ~config:{ Ik.default_config with stall_iterations } p
  in
  let free = solve None and tight = solve (Some 1) in
  Alcotest.(check bool) "free run converges" true (free.Ik.status = Ik.Converged);
  Alcotest.(check bool) "stall limit 1 converges" true
    (tight.Ik.status = Ik.Converged);
  Alcotest.(check int) "same iterations" free.Ik.iterations tight.Ik.iterations

let test_loop_accumulates_sweeps () =
  let p = List.hd (Array.to_list (problems 1)) in
  let r =
    Loop.run
      ~config:{ Ik.default_config with max_iterations = 4 }
      ~workspace:(Workspace.create ~dof:12) ~speculations:1
      ~step:(fun ws ->
        Vec.blit ws.Workspace.theta ws.Workspace.theta_next;
        3)
      p
  in
  Alcotest.(check int) "sweeps summed" 12 r.Ik.svd_sweeps

(* ---- Alpha ---- *)

let test_alpha_known () =
  (* J = [1 0 0; 0 1 0; 0 0 1] (3 joints), e = (2,0,0):
     JJᵀe = e, so α = e·e / e·e = 1. *)
  let j = Mat.identity 3 in
  let e = Vec3.make 2. 0. 0. in
  let dtheta_base = Mat.mul_transpose_vec j (Vec3.to_vec e) in
  Alcotest.(check (float 1e-12)) "alpha" 1. (Alpha.buss ~j ~e ~dtheta_base)

let test_alpha_degenerate () =
  let j = Mat.create 3 4 in
  let e = Vec3.make 1. 0. 0. in
  let dtheta_base = Mat.mul_transpose_vec j (Vec3.to_vec e) in
  Alcotest.(check (float 1e-12)) "zero on singular" 0. (Alpha.buss ~j ~e ~dtheta_base)

let test_alpha_scale_invariance =
  (* α(J, e) for e' = c·e: JJᵀe' = c·JJᵀe → α unchanged. *)
  QCheck.Test.make ~name:"alpha invariant to error scaling" ~count:100
    QCheck.(pair (int_range 0 10_000) (float_range 0.1 5.)) (fun (seed, c) ->
      let rng = Rng.create seed in
      let chain = Robots.eval_chain ~dof:6 in
      let q = Target.random_config rng chain in
      let j = Jacobian.position_jacobian chain q in
      let e = Vec3.make (Rng.gaussian rng) (Rng.gaussian rng) (Rng.gaussian rng) in
      let a1 =
        Alpha.buss ~j ~e ~dtheta_base:(Mat.mul_transpose_vec j (Vec3.to_vec e))
      in
      let e' = Vec3.scale c e in
      let a2 =
        Alpha.buss ~j ~e:e' ~dtheta_base:(Mat.mul_transpose_vec j (Vec3.to_vec e'))
      in
      Float.abs (a1 -. a2) < 1e-6 *. Float.max 1. (Float.abs a1))

(* ---- Jt_serial ---- *)

let test_jt_stability_bound_planar () =
  (* planar 3-link, 1 m links: distal reaches are 3, 2, 1 → Σ r² = 14 *)
  let c = Robots.planar ~dof:3 ~reach:3. () in
  Alcotest.(check (float 1e-9)) "bound" 14. (Jt_serial.stability_bound c)

let test_jt_serial_converges_small () =
  let chain = Robots.planar ~dof:3 ~reach:3. () in
  Array.iter
    (fun p ->
      let r = Jt_serial.solve ~config:(cfg ~max_iterations:10_000 ()) p in
      assert_converged "jt-serial" r;
      assert_solves "jt-serial" p r)
    (problems ~chain ~seed:21 5)

let test_jt_serial_error_decreases () =
  let p = (problems ~seed:22 1).(0) in
  let r = Jt_serial.solve ~config:(cfg ~max_iterations:50 ()) p in
  let initial = Ik.error_of p.Ik.chain p.Ik.target p.Ik.theta0 in
  Alcotest.(check bool) "error reduced" true (r.Ik.error < initial)

let test_jt_serial_alpha_override () =
  let p = (problems ~seed:23 1).(0) in
  let r1 = Jt_serial.solve ~alpha:1e-4 ~config:(cfg ~max_iterations:100 ()) p in
  let r2 = Jt_serial.solve ~alpha:1e-4 ~config:(cfg ~max_iterations:100 ()) p in
  Alcotest.(check bool) "deterministic" true (r1.Ik.theta = r2.Ik.theta)

let test_jt_serial_gain_speeds_up () =
  (* larger (still stable) gain must not be slower on a fixed batch *)
  let ps = problems ~seed:24 5 in
  let iters gain =
    Array.fold_left
      (fun acc p ->
        acc + (Jt_serial.solve ~gain ~config:(cfg ~max_iterations:10_000 ()) p).Ik.iterations)
      0 ps
  in
  Alcotest.(check bool) "gain 1.0 <= gain 0.25 iterations" true (iters 1.0 <= iters 0.25)

(* ---- Jt_buss / Quick_ik ---- *)

let test_jt_buss_converges () =
  Array.iter
    (fun p ->
      let r = Jt_buss.solve ~config:(cfg ()) p in
      assert_converged "jt-buss" r;
      assert_solves "jt-buss" p r)
    (problems ~seed:31 5)

let test_jt_buss_beats_jt_serial () =
  let ps = problems ~seed:32 8 in
  let total solve =
    Array.fold_left (fun acc p -> acc + (solve p).Ik.iterations) 0 ps
  in
  let buss = total (fun p -> Jt_buss.solve ~config:(cfg ~max_iterations:10_000 ()) p) in
  let serial = total (fun p -> Jt_serial.solve ~config:(cfg ~max_iterations:10_000 ()) p) in
  Alcotest.(check bool) "adaptive alpha converges faster" true (buss < serial)

let test_quick_ik_converges () =
  Array.iter
    (fun p ->
      let r = Quick_ik.solve ~speculations:64 ~config:(cfg ()) p in
      assert_converged "quick-ik" r;
      assert_solves "quick-ik" p r;
      Alcotest.(check int) "speculations recorded" 64 r.Ik.speculations)
    (problems ~seed:33 5)

let test_quick_ik_invalid_speculations () =
  let p = (problems 1).(0) in
  Alcotest.check_raises "non-positive speculations"
    (Invalid_argument "Quick_ik.solve: speculations must be positive") (fun () ->
      ignore (Quick_ik.solve ~speculations:0 p))

let test_quick_ik_one_speculation_is_buss () =
  (* with Max = 1, the only candidate is α_1 = α_base: identical to
     Jt_buss step-for-step *)
  Array.iter
    (fun p ->
      let q = Quick_ik.solve ~speculations:1 ~config:(cfg ()) p in
      let b = Jt_buss.solve ~config:(cfg ()) p in
      Alcotest.(check int) "same iterations" b.Ik.iterations q.Ik.iterations;
      Alcotest.(check bool) "same final angles" true (q.Ik.theta = b.Ik.theta))
    (problems ~seed:34 4)

(* Satellite: the hoisted Log_spaced power table must reproduce the
   historical per-iteration closed form α_base·ratio^(Max−1−k) within
   1 ulp (it is in fact bit-exact: the same [**] calls, paid once). *)
let test_quick_ik_log_spaced_ladder_pin () =
  let ulp_close a b =
    a = b
    || Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float b))
       <= 1L
  in
  List.iter
    (fun speculations ->
      let ws = Workspace.create ~dof:12 in
      let p = (problems ~seed:45 1).(0) in
      ignore
        (Quick_ik.solve ~speculations ~strategy:Quick_ik.Log_spaced
           ~workspace:ws ~config:(cfg ()) p);
      Alcotest.(check int) "ladder compiled for this Max" speculations
        ws.Workspace.ladder_for;
      let max = float_of_int speculations in
      let ratio = (1. /. max) ** (1. /. (max -. 1.)) in
      for k = 0 to speculations - 1 do
        let expected = ratio ** (max -. float_of_int (k + 1)) in
        if not (ulp_close expected ws.Workspace.ladder.(k)) then
          Alcotest.failf "Max %d: ladder.(%d) = %h, closed form %h"
            speculations k
            ws.Workspace.ladder.(k)
            expected
      done;
      (* endpoints of the geometric ladder: α_min = α_base/Max at k = 0,
         α_max = α_base at k = Max−1 *)
      Alcotest.(check bool) "top of ladder is 1" true
        (ulp_close 1. ws.Workspace.ladder.(speculations - 1));
      (* ratio^(Max−1) = 1/Max only up to the two [**] roundings *)
      Alcotest.(check bool) "bottom of ladder is ~1/Max" true
        (Float.abs ((ws.Workspace.ladder.(0) *. max) -. 1.) < 1e-12))
    [ 16; 64 ]

let test_quick_ik_extended_one_is_uniform () =
  Array.iter
    (fun p ->
      let u = Quick_ik.solve ~speculations:16 ~strategy:Quick_ik.Uniform ~config:(cfg ()) p in
      let e =
        Quick_ik.solve ~speculations:16 ~strategy:(Quick_ik.Extended 1.0) ~config:(cfg ()) p
      in
      Alcotest.(check bool) "identical" true (u.Ik.theta = e.Ik.theta))
    (problems ~seed:36 3)

let test_quick_ik_strategies_converge () =
  let p = (problems ~seed:37 1).(0) in
  List.iter
    (fun (name, strategy) ->
      let r = Quick_ik.solve ~speculations:32 ~strategy ~config:(cfg ()) p in
      assert_converged name r)
    [
      ("uniform", Quick_ik.Uniform);
      ("log-spaced", Quick_ik.Log_spaced);
      ("extended", Quick_ik.Extended 2.0);
    ]

let test_quick_ik_beats_serial_on_batch () =
  let ps = problems ~seed:38 6 in
  let quick =
    Array.fold_left
      (fun acc p ->
        acc + (Quick_ik.solve ~speculations:64 ~config:(cfg ~max_iterations:10_000 ()) p).Ik.iterations)
      0 ps
  in
  let serial =
    Array.fold_left
      (fun acc p -> acc + (Jt_serial.solve ~config:(cfg ~max_iterations:10_000 ()) p).Ik.iterations)
      0 ps
  in
  Alcotest.(check bool) "large reduction (>= 5x)" true (quick * 5 < serial)

(* Regression pin: mean Quick-IK iteration counts on the paper's eval chains,
   measured on the current implementation (seed 2017, 40 random problems per
   chain, 64 speculations, cap 3000). The ±20% band leaves room for benign
   numeric drift while catching convergence regressions — and accidental
   speedup claims — in the solver core. *)
let test_quick_ik_iteration_pin () =
  let expected = [ (12, 86.65); (30, 82.95); (100, 52.17) ] in
  List.iter
    (fun (dof, pinned) ->
      let chain = Robots.eval_chain ~dof in
      let rng = Rng.create 2017 in
      let n = 40 in
      let total = ref 0 in
      for _ = 1 to n do
        let p = Ik.random_problem rng chain in
        let r = Quick_ik.solve ~speculations:64 ~config:(cfg ()) p in
        Alcotest.(check bool)
          (Printf.sprintf "%d-DOF problem converges" dof)
          true
          (r.Ik.status = Ik.Converged);
        total := !total + r.Ik.iterations
      done;
      let mean = float_of_int !total /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%d-DOF mean iterations %.2f within ±20%% of %.2f" dof
           mean pinned)
        true
        (mean >= 0.8 *. pinned && mean <= 1.2 *. pinned))
    expected

let test_quick_ik_deterministic () =
  let p = (problems ~seed:39 1).(0) in
  let a = Quick_ik.solve ~speculations:64 ~config:(cfg ()) p in
  let b = Quick_ik.solve ~speculations:64 ~config:(cfg ()) p in
  Alcotest.(check bool) "repeatable" true (a.Ik.theta = b.Ik.theta)

let test_quick_ik_random_chains () =
  (* across a fixed population of random chains, quick-ik converges on the
     vast majority of reachable targets (a few ill-conditioned chains may
     legitimately hit the cap) and never reports a false convergence *)
  let converged = ref 0 in
  let total = 30 in
  for seed = 0 to total - 1 do
    let rng = Rng.create seed in
    let dof = 3 + Rng.int rng 10 in
    let chain = Robots.random rng ~dof ~reach:2.0 () in
    let p = Ik.random_problem rng chain in
    let r = Quick_ik.solve ~speculations:32 p in
    if r.Ik.status = Ik.Converged then begin
      incr converged;
      Alcotest.(check bool) "no false convergence" true
        (Ik.error_of chain p.Ik.target r.Ik.theta < Ik.default_config.Ik.accuracy)
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "high convergence rate (%d/%d)" !converged total)
    true
    (!converged * 10 >= total * 9)

(* ---- Pinv_svd / Dls / Sdls ---- *)

let test_pinv_converges_fast () =
  Array.iter
    (fun p ->
      let r = Pinv_svd.solve ~config:(cfg ()) p in
      assert_converged "pinv" r;
      assert_solves "pinv" p r;
      Alcotest.(check bool) "few iterations" true (r.Ik.iterations <= 60);
      Alcotest.(check bool) "sweeps recorded" true (r.Ik.svd_sweeps > 0))
    (problems ~seed:41 5)

let test_pinv_small_step_still_converges () =
  let p = (problems ~seed:42 1).(0) in
  let r = Pinv_svd.solve ~max_step:0.1 ~config:(cfg ()) p in
  assert_converged "pinv small step" r

let test_pinv_100dof () =
  let chain = Robots.eval_chain ~dof:100 in
  let p = (problems ~chain ~seed:43 1).(0) in
  let r = Pinv_svd.solve ~config:(cfg ()) p in
  assert_converged "pinv 100dof" r

let test_dls_converges () =
  Array.iter
    (fun p ->
      let r = Dls.solve ~config:(cfg ()) p in
      assert_converged "dls" r;
      assert_solves "dls" p r)
    (problems ~seed:44 5)

let test_dls_lambda_tradeoff () =
  (* heavier damping must not converge in fewer iterations on a batch *)
  let ps = problems ~seed:45 6 in
  let total lambda =
    Array.fold_left
      (fun acc p -> acc + (Dls.solve ~lambda ~config:(cfg ()) p).Ik.iterations)
      0 ps
  in
  Alcotest.(check bool) "lambda 0.05 <= lambda 1.0 iterations" true
    (total 0.05 <= total 1.0)

let test_sdls_converges () =
  Array.iter
    (fun p ->
      let r = Sdls.solve ~config:(cfg ()) p in
      assert_converged "sdls" r;
      assert_solves "sdls" p r)
    (problems ~seed:46 5)

let test_sdls_respects_gamma_max () =
  (* one iteration from a fixed start: ‖Δθ‖∞ ≤ γ_max *)
  let p = (problems ~seed:47 1).(0) in
  let gamma_max = 0.2 in
  let r =
    Sdls.solve ~gamma_max ~config:{ (cfg ()) with Ik.max_iterations = 1 } p
  in
  let dtheta = Vec.sub r.Ik.theta p.Ik.theta0 in
  Alcotest.(check bool) "step bounded" true (Vec.max_abs dtheta <= gamma_max +. 1e-9)

(* ---- Ccd ---- *)

let test_ccd_converges_planar () =
  let chain = Robots.planar ~dof:6 ~reach:3. () in
  Array.iter
    (fun p ->
      let r = Ccd.solve ~config:(cfg ~max_iterations:500 ()) p in
      assert_converged "ccd planar" r;
      assert_solves "ccd planar" p r)
    (problems ~chain ~seed:51 5)

let test_ccd_respects_limits () =
  let chain = Robots.snake ~dof:10 in
  let p = (problems ~chain ~seed:52 1).(0) in
  let r = Ccd.solve ~config:(cfg ~max_iterations:300 ()) p in
  Alcotest.(check bool) "final config inside limits" true
    (Chain.config_inside chain r.Ik.theta)

let test_ccd_prismatic () =
  (* CCD is a weak baseline on joint-limited chains (it gets trapped in
     local minima — the criticism the paper's related work raises), so on
     SCARA we require a majority of targets to converge and monotone
     improvement everywhere rather than full convergence. *)
  let chain = Robots.scara () in
  let ps = problems ~chain ~seed:53 5 in
  let converged = ref 0 in
  Array.iter
    (fun p ->
      let r = Ccd.solve ~config:(cfg ~max_iterations:500 ()) p in
      if r.Ik.status = Ik.Converged then incr converged;
      let initial = Ik.error_of p.Ik.chain p.Ik.target p.Ik.theta0 in
      Alcotest.(check bool) "no worse than start" true (r.Ik.error <= initial +. 1e-9))
    ps;
  Alcotest.(check bool) "majority converge" true (!converged >= 3)

let test_pose_target_of_mat4_roundtrip () =
  let chain = Robots.arm_7dof () in
  let rng = Rng.create 114 in
  let q = Target.random_config rng chain in
  let pose = Fk.pose chain q in
  let t = Pose.target_of_mat4 pose in
  Alcotest.(check bool) "position extracted" true
    (Vec3.approx_equal t.Pose.position (Mat4.position pose));
  Alcotest.(check (float 1e-9)) "orientation extracted" 0.
    (Rot.angle_between t.Pose.orientation (Mat4.rotation pose))

(* ---- Cost ---- *)

let test_cost_fk_consistency () =
  List.iter
    (fun dof ->
      Alcotest.(check (float 1e-9)) "fk_flops matches kinematics count"
        (float_of_int (Fk.flops_per_position dof))
        (Cost.fk_flops ~dof))
    [ 1; 12; 100 ]

let test_cost_totals () =
  let c = Cost.quick_ik ~dof:50 ~speculations:64 in
  Alcotest.(check (float 1e-9)) "total = serial + parallel"
    (c.Cost.serial_flops +. c.Cost.parallel_flops)
    (Cost.total c)

let test_cost_quick_ik_structure () =
  (* Quick-IK's serial prologue equals JT-Buss minus its update. *)
  let dof = 31 in
  let quick = Cost.quick_ik ~dof ~speculations:64 in
  let buss = Cost.jt_buss ~dof in
  Alcotest.(check (float 1e-9)) "serial parts related"
    (buss.Cost.serial_flops -. (2. *. float_of_int dof))
    quick.Cost.serial_flops

let test_cost_parallel_scales_with_specs () =
  let dof = 40 in
  let c32 = Cost.quick_ik ~dof ~speculations:32 in
  let c64 = Cost.quick_ik ~dof ~speculations:64 in
  Alcotest.(check (float 1e-6)) "parallel flops double"
    (2. *. c32.Cost.parallel_flops) c64.Cost.parallel_flops;
  Alcotest.(check (float 1e-9)) "serial unchanged" c32.Cost.serial_flops
    c64.Cost.serial_flops

let test_cost_monotone_in_dof () =
  List.iter
    (fun f ->
      Alcotest.(check bool) "monotone" true (Cost.total (f 100) > Cost.total (f 12)))
    [
      (fun dof -> Cost.jt_serial ~dof);
      (fun dof -> Cost.jt_buss ~dof);
      (fun dof -> Cost.quick_ik ~dof ~speculations:64);
      (fun dof -> Cost.pinv_svd ~dof ~sweeps:6.);
      (fun dof -> Cost.sdls ~dof ~sweeps:6.);
      (fun dof -> Cost.dls ~dof);
      (fun dof -> Cost.ccd ~dof);
    ]

let test_cost_ccd_superlinear () =
  Alcotest.(check bool) "ccd is O(dof^2)" true
    (Cost.total (Cost.ccd ~dof:100) > 3. *. Cost.total (Cost.ccd ~dof:50))

let test_cost_jt_serial_cheaper_than_buss () =
  Alcotest.(check bool) "fixed alpha skips Eq. 8" true
    (Cost.total (Cost.jt_serial ~dof:64) < Cost.total (Cost.jt_buss ~dof:64))

let scaled_chain chain s =
  let links =
    Array.map
      (fun { Chain.name; joint; dh } ->
        { Chain.name; joint; dh = { dh with Dh.a = dh.Dh.a *. s; d = dh.Dh.d *. s } })
      (Chain.links chain)
  in
  Chain.make ~name:(Chain.name chain ^ "-scaled") links

let test_quick_ik_scale_invariance () =
  (* IK with the transpose family is dimensionally consistent: scaling
     every length (links, target, accuracy) by s leaves the joint-angle
     iterates unchanged.  With s a power of two the float arithmetic is
     exact, so the runs are bit-identical. *)
  let s = 4.0 in
  let chain = Robots.eval_chain ~dof:12 in
  let big = scaled_chain chain s in
  let rng = Rng.create 110 in
  for _ = 1 to 3 do
    let q_goal = Target.random_config rng chain in
    let theta0 = Target.random_config rng chain in
    let target = Fk.position chain q_goal in
    let big_target = Vec3.scale s target in
    let small =
      Quick_ik.solve ~speculations:32
        (Ik.problem ~chain ~target ~theta0)
    in
    let big_result =
      Quick_ik.solve ~speculations:32
        ~config:{ Ik.default_config with accuracy = Ik.default_config.Ik.accuracy *. s }
        (Ik.problem ~chain:big ~target:big_target ~theta0)
    in
    Alcotest.(check int) "same iterations" small.Ik.iterations big_result.Ik.iterations;
    Alcotest.(check bool) "identical joint angles" true
      (small.Ik.theta = big_result.Ik.theta)
  done

let test_linesearch_converges () =
  Array.iter
    (fun p ->
      let r = Jt_linesearch.solve ~config:(cfg ()) p in
      assert_converged "jt-linesearch" r;
      assert_solves "jt-linesearch" p r;
      Alcotest.(check int) "evaluations recorded" 20 r.Ik.speculations)
    (problems ~seed:111 4)

let test_linesearch_competitive_with_quick_ik () =
  (* an exact serial line search needs no more iterations than the
     64-candidate grid (it refines the same interval) on a batch *)
  let ps = problems ~seed:112 6 in
  let total solve = Array.fold_left (fun acc p -> acc + (solve p).Ik.iterations) 0 ps in
  let ls = total (fun p -> Jt_linesearch.solve ~config:(cfg ()) p) in
  let quick = total (fun p -> Quick_ik.solve ~speculations:64 ~config:(cfg ()) p) in
  Alcotest.(check bool)
    (Printf.sprintf "iterations comparable (ls %d vs quick %d)" ls quick)
    true
    (ls <= 2 * quick)

let test_linesearch_never_regresses () =
  let p = (problems ~seed:113 1).(0) in
  let errs = ref [] in
  ignore
    (Jt_linesearch.solve
       ~on_iteration:(fun ~iter:_ ~err -> errs := err :: !errs)
       ~config:(cfg ~max_iterations:200 ()) p);
  let oldest_first = List.rev !errs in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> b <= a +. 1e-12 && non_increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "error never increases" true (non_increasing oldest_first)

let test_linesearch_invalid () =
  let p = (problems 1).(0) in
  Alcotest.(check bool) "bad budget" true
    (try
       ignore (Jt_linesearch.solve ~evaluations:1 p);
       false
     with Invalid_argument _ -> true)

(* ---- Pose (6-DOF task extension) ---- *)

let pose_problems ?(chain = Robots.arm_7dof ()) ?(seed = 71) n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Pose.random_problem rng chain)

let pose_cfg = { Pose.default_config with max_iterations = 5_000 }

let assert_pose_solved name (p : Pose.problem) (r : Pose.result) =
  Alcotest.(check bool)
    (Printf.sprintf "%s converged (pos %.4f rot %.4f)" name r.Pose.position_error
       r.Pose.orientation_error)
    true
    (r.Pose.status = Pose.Converged);
  (* independent FK verification of both error components *)
  let pose = Fk.pose p.Pose.chain r.Pose.theta in
  let pos_err = Vec3.dist p.Pose.target.Pose.position (Mat4.position pose) in
  let rot_err =
    Rot.angle_between p.Pose.target.Pose.orientation (Mat4.rotation pose)
  in
  Alcotest.(check bool) (name ^ ": FK position confirms") true
    (pos_err < pose_cfg.Pose.position_accuracy);
  Alcotest.(check bool) (name ^ ": FK orientation confirms") true
    (rot_err < pose_cfg.Pose.orientation_accuracy)

let test_pose_twist_zero_at_solution () =
  let chain = Robots.arm_7dof () in
  let rng = Rng.create 72 in
  let q = Target.random_config rng chain in
  let target = Pose.target_of_mat4 (Fk.pose chain q) in
  let e = Pose.error_twist ~rotation_weight:0.5 chain target q in
  Alcotest.(check bool) "zero twist" true (Vec.norm e < 1e-9)

let test_pose_twist_pure_translation () =
  let chain = Robots.arm_7dof () in
  let rng = Rng.create 73 in
  let q = Target.random_config rng chain in
  let pose = Fk.pose chain q in
  let offset = Vec3.make 0.1 (-0.2) 0.05 in
  let target =
    { Pose.position = Vec3.add (Mat4.position pose) offset;
      orientation = Mat4.rotation pose }
  in
  let e = Pose.error_twist ~rotation_weight:0.5 chain target q in
  Alcotest.(check bool) "translation part" true
    (Vec3.approx_equal ~tol:1e-9 (Vec3.make e.(0) e.(1) e.(2)) offset);
  Alcotest.(check bool) "no rotation part" true
    (Float.abs e.(3) < 1e-9 && Float.abs e.(4) < 1e-9 && Float.abs e.(5) < 1e-9)

let test_pose_dls_converges () =
  Array.iter
    (fun p -> assert_pose_solved "pose-dls" p (Pose.solve_dls ~config:pose_cfg p))
    (pose_problems 5)

let test_pose_quick_converges () =
  Array.iter
    (fun p ->
      assert_pose_solved "pose-quick" p
        (Pose.solve_quick ~speculations:64 ~config:pose_cfg p))
    (pose_problems ~seed:74 4)

let test_pose_jt_progresses () =
  (* pose-JT is slow (same reason as position-JT); require progress and
     convergence on at least some problems rather than all *)
  let ps = pose_problems ~seed:75 4 in
  let converged = ref 0 in
  Array.iter
    (fun p ->
      let r = Pose.solve_jt ~config:pose_cfg p in
      if r.Pose.status = Pose.Converged then incr converged)
    ps;
  Alcotest.(check bool) "at least half converge" true (!converged * 2 >= Array.length ps)

let test_pose_quick_beats_jt () =
  let ps = pose_problems ~seed:76 4 in
  let total solve = Array.fold_left (fun acc p -> acc + (solve p).Pose.iterations) 0 ps in
  let quick = total (fun p -> Pose.solve_quick ~speculations:64 ~config:pose_cfg p) in
  let jt = total (fun p -> Pose.solve_jt ~config:pose_cfg p) in
  Alcotest.(check bool) "speculation helps on the pose task" true (quick <= jt)

let test_pose_on_high_dof () =
  let chain = Robots.eval_chain ~dof:50 in
  let p = (pose_problems ~chain ~seed:77 1).(0) in
  let r = Pose.solve_dls ~config:pose_cfg p in
  assert_pose_solved "pose-dls-50dof" p r

let test_pose_invalid_speculations () =
  let p = (pose_problems 1).(0) in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Pose.solve_quick ~speculations:0 p);
       false
     with Invalid_argument _ -> true)

(* ---- on_iteration instrumentation ---- *)

let test_on_iteration_observes_descent () =
  let p = (problems ~seed:107 1).(0) in
  let errs = ref [] in
  let r =
    Quick_ik.solve ~speculations:32
      ~on_iteration:(fun ~iter:_ ~err -> errs := err :: !errs)
      ~config:(cfg ()) p
  in
  let errs = List.rev !errs in
  Alcotest.(check int) "one observation per iteration + final" (r.Ik.iterations + 1)
    (List.length errs);
  Alcotest.(check (float 1e-12)) "last observation = final error" r.Ik.error
    (List.nth errs (List.length errs - 1));
  Alcotest.(check bool) "first observation is the initial error" true
    (List.hd errs >= r.Ik.error)

(* ---- Batch ---- *)

let test_batch_sequential () =
  let ps = problems ~seed:95 6 in
  let s = Batch.solve ~solver:(fun p -> Quick_ik.solve ~speculations:16 p) ps in
  Alcotest.(check int) "all results" 6 (Array.length s.Batch.results);
  Alcotest.(check int) "all converge" 6 s.Batch.converged;
  Alcotest.(check bool) "mean iterations positive" true (s.Batch.mean_iterations > 0.)

let test_batch_parallel_matches_sequential () =
  let pool = Dadu_util.Domain_pool.create 4 in
  Fun.protect ~finally:(fun () -> Dadu_util.Domain_pool.shutdown pool) @@ fun () ->
  let ps = problems ~seed:96 8 in
  let solver p = Dls.solve p in
  let seq = Batch.solve ~solver ps in
  let par = Batch.solve ~pool ~solver ps in
  Array.iteri
    (fun i (r : Ik.result) ->
      Alcotest.(check bool) (Printf.sprintf "problem %d identical" i) true
        (r.Ik.theta = par.Batch.results.(i).Ik.theta))
    seq.Batch.results

let test_batch_empty () =
  let s = Batch.solve ~solver:(fun p -> Dls.solve p) [||] in
  Alcotest.(check int) "no results" 0 (Array.length s.Batch.results);
  Alcotest.(check (float 0.)) "zero mean" 0. s.Batch.mean_iterations

(* ---- Cross-solver behaviour ---- *)

let all_solvers =
  [
    ("jt-buss", fun config p -> Jt_buss.solve ~config p);
    ("quick-ik", fun config p -> Quick_ik.solve ~speculations:32 ~config p);
    ("pinv", fun config p -> Pinv_svd.solve ~config p);
    ("dls", fun config p -> Dls.solve ~config p);
    ("sdls", fun config p -> Sdls.solve ~config p);
  ]

let test_all_solvers_same_problem () =
  let p = (problems ~seed:61 1).(0) in
  List.iter
    (fun (name, solve) ->
      let r = solve (cfg ()) p in
      assert_converged name r;
      assert_solves name p r)
    all_solvers

let test_all_solvers_named_robots () =
  List.iter
    (fun chain ->
      let p = (problems ~chain ~seed:62 1).(0) in
      List.iter
        (fun (name, solve) ->
          let r = solve (cfg ()) p in
          assert_converged (Chain.name chain ^ "/" ^ name) r)
        all_solvers)
    [ Robots.arm_6dof (); Robots.arm_7dof (); Robots.snake ~dof:20 ]

let test_unreachable_target_caps () =
  let chain = Robots.arm_6dof () in
  let rng = Rng.create 63 in
  let target = Target.unreachable rng chain in
  let theta0 = Target.random_config rng chain in
  let p = Ik.problem ~chain ~target ~theta0 in
  let config = { Ik.default_config with max_iterations = 200 } in
  let r = Quick_ik.solve ~speculations:16 ~config p in
  Alcotest.(check bool) "does not converge" true (r.Ik.status = Ik.Max_iterations);
  Alcotest.(check bool) "error stays above accuracy" true (r.Ik.error > 1e-2)

let test_solver_results_deterministic =
  QCheck.Test.make ~name:"every solver is deterministic" ~count:20
    QCheck.(int_range 0 10_000) (fun seed ->
      let p = (problems ~seed 1).(0) in
      List.for_all
        (fun (_, solve) ->
          let a = solve (cfg ~max_iterations:100 ()) p in
          let b = solve (cfg ~max_iterations:100 ()) p in
          a.Ik.theta = b.Ik.theta && a.Ik.iterations = b.Ik.iterations)
        all_solvers)

(* ---- workspace-identity trace pins ----

   Reusing a solve workspace must be invisible: a solver driven on a
   workspace already dirtied by a different problem must produce the exact
   iteration trace — every (iter, err) pair, compared as raw float bits —
   and the exact solution bits of a run on a fresh workspace.  This is the
   property that makes per-domain workspace pooling in the service layer
   safe.  Pinned on the fixed-seed 12/30/100-DOF grid. *)

let trace_of ~workspace solver problem =
  let trace = ref [] in
  let on_iteration ~iter ~err =
    trace := (iter, Int64.bits_of_float err) :: !trace
  in
  let result = solver ~on_iteration ~workspace problem in
  (List.rev !trace, Array.map Int64.bits_of_float result.Ik.theta)

let check_workspace_identity name solver ~dof =
  let chain = Robots.eval_chain ~dof in
  let rng = Rng.create (900 + dof) in
  let decoy = Ik.random_problem rng chain in
  let problem = Ik.random_problem rng chain in
  let fresh_trace, fresh_theta =
    trace_of ~workspace:(Workspace.create ~dof) solver problem
  in
  let reused = Workspace.create ~dof in
  ignore (solver ~on_iteration:(fun ~iter:_ ~err:_ -> ()) ~workspace:reused decoy);
  let reused_trace, reused_theta = trace_of ~workspace:reused solver problem in
  if List.length fresh_trace = 0 then
    Alcotest.failf "%s (%d DOF): empty iteration trace" name dof;
  if not (List.equal (fun (i, b) (i', b') -> i = i' && Int64.equal b b')
            fresh_trace reused_trace)
  then Alcotest.failf "%s (%d DOF): iteration traces diverge" name dof;
  Array.iteri
    (fun i b ->
      if not (Int64.equal b reused_theta.(i)) then
        Alcotest.failf "%s (%d DOF): theta component %d differs" name dof i)
    fresh_theta

let pin_config = { Ik.default_config with max_iterations = 120 }

let workspace_identity_case name solver =
  List.map
    (fun dof ->
      Alcotest.test_case
        (Printf.sprintf "%s, %d DOF" name dof)
        (if dof = 100 then `Slow else `Quick)
        (fun () -> check_workspace_identity name solver ~dof))
    [ 12; 30; 100 ]

let workspace_identity_tests =
  List.concat
    [
      workspace_identity_case "quick_ik"
        (fun ~on_iteration ~workspace p ->
          Quick_ik.solve ~speculations:16 ~on_iteration ~workspace
            ~config:pin_config p);
      workspace_identity_case "jt_serial"
        (fun ~on_iteration ~workspace p ->
          Jt_serial.solve ~on_iteration ~workspace ~config:pin_config p);
      workspace_identity_case "jt_buss"
        (fun ~on_iteration ~workspace p ->
          Jt_buss.solve ~on_iteration ~workspace ~config:pin_config p);
      workspace_identity_case "jt_linesearch"
        (fun ~on_iteration ~workspace p ->
          Jt_linesearch.solve ~on_iteration ~workspace ~config:pin_config p);
      workspace_identity_case "dls"
        (fun ~on_iteration ~workspace p ->
          Dls.solve ~on_iteration ~workspace ~config:pin_config p);
      workspace_identity_case "sdls"
        (fun ~on_iteration ~workspace p ->
          Sdls.solve ~on_iteration ~workspace ~config:pin_config p);
    ]

(* The per-domain workspace pool's accounting: the first request for a
   DOF builds, every later one on the same domain reuses the same
   workspace (physically), and the process-global counters see both. *)
let test_workspace_local_stats () =
  let s0 = Workspace.local_stats () in
  let c0 = Workspace.local_count () in
  let w1 = Workspace.local ~dof:97 in
  let s1 = Workspace.local_stats () in
  let w2 = Workspace.local ~dof:97 in
  let s2 = Workspace.local_stats () in
  Alcotest.(check bool) "second lookup returns the same workspace" true (w1 == w2);
  Alcotest.(check int) "first lookup creates" (s0.Workspace.created + 1)
    s1.Workspace.created;
  Alcotest.(check int) "second lookup creates nothing" s1.Workspace.created
    s2.Workspace.created;
  Alcotest.(check int) "second lookup reuses" (s1.Workspace.reused + 1)
    s2.Workspace.reused;
  Alcotest.(check int) "domain cache grew by one" (c0 + 1) (Workspace.local_count ())

(* ---- divergence guard ---- *)

let guarded g = { Ik.default_config with guard = Some g }

(* A step that poisons the configuration: the guarded driver must abort
   with [Diverged] at the next iteration top, the unguarded driver must
   keep spinning to the cap (NaN error compares false against every
   threshold). *)
let nan_step ws =
  Vec.blit ws.Workspace.theta ws.Workspace.theta_next;
  ws.Workspace.theta_next.(0) <- Float.nan;
  0

let nan_problem () =
  let chain = Robots.planar ~dof:3 ~reach:3. () in
  Ik.problem ~chain ~target:(Dadu_linalg.Vec3.make 2.5 0.5 0.)
    ~theta0:(Vec.create 3)

let test_guard_catches_nan () =
  let p = nan_problem () in
  let r =
    Loop.run
      ~config:{ (guarded Ik.default_guard) with max_iterations = 50 }
      ~workspace:(Workspace.create ~dof:3) ~speculations:1 ~step:nan_step p
  in
  Alcotest.(check bool) "diverged" true (r.Ik.status = Ik.Diverged);
  Alcotest.(check bool) "few iterations" true (r.Ik.iterations <= 2)

let test_unguarded_nan_spins_to_cap () =
  let p = nan_problem () in
  let r =
    Loop.run
      ~config:{ Ik.default_config with max_iterations = 50 }
      ~workspace:(Workspace.create ~dof:3) ~speculations:1 ~step:nan_step p
  in
  Alcotest.(check bool) "hits the cap" true (r.Ik.status = Ik.Max_iterations);
  Alcotest.(check int) "all 50 iterations" 50 r.Ik.iterations

let test_guard_catches_explosion () =
  (* start almost on target (tiny initial error), then run away: the
     error explodes past [factor × max initial accuracy] and stays
     there, so after [patience] consecutive iterations the guard trips *)
  let chain = Robots.planar ~dof:2 ~reach:2. () in
  let theta0 = Vec.create 2 in
  let target = Fk.position chain (Vec.of_list [ 0.02; 0. ]) in
  let p = Ik.problem ~chain ~target ~theta0 in
  let config =
    {
      (guarded { Ik.explode_factor = 3.; explode_patience = 4 }) with
      accuracy = 1e-6;
      max_iterations = 200;
    }
  in
  let runaway ws =
    Vec.blit ws.Workspace.theta ws.Workspace.theta_next;
    ws.Workspace.theta_next.(0) <- ws.Workspace.theta.(0) +. 1.5;
    1
  in
  let r =
    Loop.run ~config ~workspace:(Workspace.create ~dof:2) ~speculations:1
      ~step:runaway p
  in
  Alcotest.(check bool) "diverged" true (r.Ik.status = Ik.Diverged);
  Alcotest.(check bool) "well before the cap" true (r.Ik.iterations < 50)

let test_guard_patience_tolerates_transients () =
  (* one bad iteration then straight back: patience 3 must not trip *)
  let chain = Robots.planar ~dof:2 ~reach:2. () in
  let theta0 = Vec.create 2 in
  let target = Fk.position chain (Vec.of_list [ 0.02; 0. ]) in
  let p = Ik.problem ~chain ~target ~theta0 in
  let config =
    {
      (guarded { Ik.explode_factor = 3.; explode_patience = 3 }) with
      accuracy = 1e-6;
      max_iterations = 8;
    }
  in
  let spike ws =
    Vec.blit ws.Workspace.theta ws.Workspace.theta_next;
    (* iteration 0 jumps far away, every later one returns home *)
    ws.Workspace.theta_next.(0) <- (if ws.Workspace.iter = 0 then 2. else 0.);
    0
  in
  let r =
    Loop.run ~config ~workspace:(Workspace.create ~dof:2) ~speculations:1
      ~step:spike p
  in
  Alcotest.(check bool) "transient not punished" true
    (r.Ik.status <> Ik.Diverged)

(* The guard must be invisible on healthy runs: same problem, same
   solver, guard on vs. off — bit-identical results. *)
let test_guard_invisible_when_healthy () =
  let p = (problems ~seed:71 1).(0) in
  List.iter
    (fun (name, solve) ->
      let off = solve (cfg ()) p in
      let on = solve { (cfg ()) with Ik.guard = Some Ik.default_guard } p in
      Alcotest.(check bool)
        (name ^ ": guarded run bit-identical") true
        (off = on))
    all_solvers

(* ---- degenerate poses ---- *)

let eight_solvers =
  [
    ("quick-ik", fun config p -> Quick_ik.solve ~speculations:16 ~config p);
    ("jt-serial", fun config p -> Jt_serial.solve ~config p);
    ("jt-buss", fun config p -> Jt_buss.solve ~config p);
    ("jt-linesearch", fun config p -> Jt_linesearch.solve ~config p);
    ("pinv", fun config p -> Pinv_svd.solve ~config p);
    ("dls", fun config p -> Dls.solve ~config p);
    ("sdls", fun config p -> Sdls.solve ~config p);
    ("ccd", fun config p -> Ccd.solve ~config p);
  ]

(* Every solver must survive pathological geometry without raising, and
   must come back with a finite configuration and an honest status —
   guarded and unguarded alike. *)
let degenerate_cases () =
  let origin = Dadu_linalg.Vec3.make 0. 0. 0. in
  [
    (* target coincident with the base: Jacobian rows vanish as the
       chain folds onto itself *)
    ( "target-at-base",
      Ik.problem
        ~chain:(Robots.planar ~dof:4 ~reach:2. ())
        ~target:origin
        ~theta0:(Vec.of_list [ 0.3; -0.2; 0.5; 0.1 ]) );
    (* zero-length links: FK collapses to the base, every error is the
       target distance, every direction is null *)
    ( "zero-length-chain",
      Ik.problem
        ~chain:(Robots.planar ~dof:3 ~reach:0. ())
        ~target:(Dadu_linalg.Vec3.make 0.5 0.5 0.)
        ~theta0:(Vec.of_list [ 0.1; 0.2; 0.3 ]) );
    ( "zero-length-chain-own-base",
      Ik.problem
        ~chain:(Robots.planar ~dof:3 ~reach:0. ())
        ~target:origin
        ~theta0:(Vec.create 3) );
    (* fully stretched at the workspace boundary: the classic boundary
       singularity (J·Jᵀ loses rank along the chain axis) *)
    ( "boundary-singular",
      Ik.problem
        ~chain:(Robots.planar ~dof:5 ~reach:2.5 ())
        ~target:(Dadu_linalg.Vec3.make 2.5 0. 0.)
        ~theta0:(Vec.create 5) );
  ]

let theta_finite theta = Array.for_all Float.is_finite theta

let test_degenerate_poses () =
  let config = { (cfg ~max_iterations:300 ()) with Ik.accuracy = 1e-3 } in
  let configs =
    [ ("unguarded", config); ("guarded", { config with Ik.guard = Some Ik.default_guard }) ]
  in
  List.iter
    (fun (case, p) ->
      List.iter
        (fun (mode, config) ->
          List.iter
            (fun (name, solve) ->
              let label = case ^ "/" ^ mode ^ "/" ^ name in
              match solve config p with
              | r ->
                Alcotest.(check bool) (label ^ ": finite theta") true
                  (theta_finite r.Ik.theta);
                (match r.Ik.status with
                | Ik.Converged ->
                  Alcotest.(check bool)
                    (label ^ ": converged honestly") true
                    (Ik.error_of p.Ik.chain p.Ik.target r.Ik.theta
                    <= config.Ik.accuracy +. 1e-9)
                | Ik.Max_iterations | Ik.Stalled | Ik.Diverged -> ())
              | exception e ->
                Alcotest.failf "%s raised %s" label (Printexc.to_string e))
            eight_solvers)
        configs)
    (degenerate_cases ())

let () =
  Alcotest.run "dadu_core"
    [
      ("workspace-identity", workspace_identity_tests);
      ( "guard",
        [
          Alcotest.test_case "catches NaN" `Quick test_guard_catches_nan;
          Alcotest.test_case "unguarded NaN spins" `Quick
            test_unguarded_nan_spins_to_cap;
          Alcotest.test_case "catches explosion" `Quick
            test_guard_catches_explosion;
          Alcotest.test_case "patience tolerates transients" `Quick
            test_guard_patience_tolerates_transients;
          Alcotest.test_case "invisible when healthy" `Quick
            test_guard_invisible_when_healthy;
        ] );
      ( "degenerate-poses",
        [ Alcotest.test_case "all eight solvers" `Quick test_degenerate_poses ] );
      ( "workspace-pool",
        [ Alcotest.test_case "local stats" `Quick test_workspace_local_stats ] );
      ( "ik",
        [
          Alcotest.test_case "problem validates dof" `Quick test_ik_problem_validates;
          Alcotest.test_case "problem copies theta0" `Quick test_ik_problem_copies_theta0;
          Alcotest.test_case "paper defaults" `Quick test_ik_defaults;
          Alcotest.test_case "work metric" `Quick test_ik_work;
          Alcotest.test_case "error_of" `Quick test_ik_error_of_zero;
        ] );
      ( "loop",
        [
          Alcotest.test_case "immediate convergence" `Quick test_loop_immediate_convergence;
          Alcotest.test_case "iteration cap" `Quick test_loop_cap;
          Alcotest.test_case "stall detection" `Quick test_loop_stall_detection;
          Alcotest.test_case "sweep accumulation" `Quick test_loop_accumulates_sweeps;
        ] );
      ( "alpha",
        [
          Alcotest.test_case "known value" `Quick test_alpha_known;
          Alcotest.test_case "degenerate" `Quick test_alpha_degenerate;
          qcheck test_alpha_scale_invariance;
        ] );
      ( "jt-serial",
        [
          Alcotest.test_case "stability bound" `Quick test_jt_stability_bound_planar;
          Alcotest.test_case "converges on small chain" `Slow test_jt_serial_converges_small;
          Alcotest.test_case "error decreases" `Quick test_jt_serial_error_decreases;
          Alcotest.test_case "alpha override deterministic" `Quick
            test_jt_serial_alpha_override;
          Alcotest.test_case "gain speeds up" `Slow test_jt_serial_gain_speeds_up;
        ] );
      ( "quick-ik",
        [
          Alcotest.test_case "jt-buss converges" `Quick test_jt_buss_converges;
          Alcotest.test_case "buss beats fixed alpha" `Slow test_jt_buss_beats_jt_serial;
          Alcotest.test_case "converges" `Quick test_quick_ik_converges;
          Alcotest.test_case "invalid speculations" `Quick test_quick_ik_invalid_speculations;
          Alcotest.test_case "1 speculation = buss" `Quick test_quick_ik_one_speculation_is_buss;
          Alcotest.test_case "log-spaced ladder pin" `Quick
            test_quick_ik_log_spaced_ladder_pin;
          Alcotest.test_case "extended 1.0 = uniform" `Quick
            test_quick_ik_extended_one_is_uniform;
          Alcotest.test_case "all strategies converge" `Quick test_quick_ik_strategies_converge;
          Alcotest.test_case "beats serial 5x" `Slow test_quick_ik_beats_serial_on_batch;
          Alcotest.test_case "deterministic" `Quick test_quick_ik_deterministic;
          Alcotest.test_case "scale invariance" `Quick test_quick_ik_scale_invariance;
          Alcotest.test_case "line search converges" `Quick test_linesearch_converges;
          Alcotest.test_case "line search competitive" `Quick
            test_linesearch_competitive_with_quick_ik;
          Alcotest.test_case "line search never regresses" `Quick
            test_linesearch_never_regresses;
          Alcotest.test_case "line search invalid" `Quick test_linesearch_invalid;
          Alcotest.test_case "random chains converge" `Slow test_quick_ik_random_chains;
          Alcotest.test_case "iteration-count pin (12/30/100 DOF)" `Slow
            test_quick_ik_iteration_pin;
          Alcotest.test_case "on_iteration hook" `Quick test_on_iteration_observes_descent;
        ] );
      ( "pinv-dls-sdls",
        [
          Alcotest.test_case "pinv converges fast" `Quick test_pinv_converges_fast;
          Alcotest.test_case "pinv small step" `Quick test_pinv_small_step_still_converges;
          Alcotest.test_case "pinv 100dof" `Slow test_pinv_100dof;
          Alcotest.test_case "dls converges" `Quick test_dls_converges;
          Alcotest.test_case "dls lambda tradeoff" `Quick test_dls_lambda_tradeoff;
          Alcotest.test_case "sdls converges" `Quick test_sdls_converges;
          Alcotest.test_case "sdls gamma_max" `Quick test_sdls_respects_gamma_max;
        ] );
      ( "ccd",
        [
          Alcotest.test_case "converges planar" `Quick test_ccd_converges_planar;
          Alcotest.test_case "respects limits" `Quick test_ccd_respects_limits;
          Alcotest.test_case "prismatic chain" `Quick test_ccd_prismatic;
        ] );
      ( "cost",
        [
          Alcotest.test_case "fk consistency" `Quick test_cost_fk_consistency;
          Alcotest.test_case "totals" `Quick test_cost_totals;
          Alcotest.test_case "quick-ik structure" `Quick test_cost_quick_ik_structure;
          Alcotest.test_case "parallel scales" `Quick test_cost_parallel_scales_with_specs;
          Alcotest.test_case "monotone in dof" `Quick test_cost_monotone_in_dof;
          Alcotest.test_case "ccd superlinear" `Quick test_cost_ccd_superlinear;
          Alcotest.test_case "fixed alpha cheaper" `Quick test_cost_jt_serial_cheaper_than_buss;
        ] );
      ( "pose",
        [
          Alcotest.test_case "zero twist at solution" `Quick test_pose_twist_zero_at_solution;
          Alcotest.test_case "pure translation twist" `Quick test_pose_twist_pure_translation;
          Alcotest.test_case "dls converges" `Quick test_pose_dls_converges;
          Alcotest.test_case "quick converges" `Slow test_pose_quick_converges;
          Alcotest.test_case "jt progresses" `Slow test_pose_jt_progresses;
          Alcotest.test_case "quick beats jt" `Slow test_pose_quick_beats_jt;
          Alcotest.test_case "high-dof pose" `Slow test_pose_on_high_dof;
          Alcotest.test_case "invalid speculations" `Quick test_pose_invalid_speculations;
          Alcotest.test_case "target_of_mat4" `Quick test_pose_target_of_mat4_roundtrip;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batch sequential" `Quick test_batch_sequential;
          Alcotest.test_case "batch parallel identical" `Quick
            test_batch_parallel_matches_sequential;
          Alcotest.test_case "batch empty" `Quick test_batch_empty;
        ] );
      ( "cross-solver",
        [
          Alcotest.test_case "all solve one problem" `Quick test_all_solvers_same_problem;
          Alcotest.test_case "named robots" `Slow test_all_solvers_named_robots;
          Alcotest.test_case "unreachable target" `Quick test_unreachable_target_caps;
          qcheck test_solver_results_deterministic;
        ] );
    ]
