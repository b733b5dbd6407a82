(* Allocation tests for the zero-allocation solver kernels.

   Strategy: solve against an unreachable target with a tiny accuracy so a
   solver runs exactly [max_iterations] iterations, on one shared
   workspace.  Two runs of different lengths bracket the steady state: the
   difference of their [Gc.minor_words] deltas cancels every per-solve
   constant (closure for the step function, result record, final
   [Vec.copy]) and leaves exactly the words allocated per iteration.  A
   warm-up solve first populates the candidate pools and the FK scratch's
   compiled-chain cache, which do allocate, but only once per workspace. *)

open Dadu_kinematics
open Dadu_core

let unreachable_problem ~dof =
  let chain = Robots.eval_chain ~dof in
  let theta0 = Array.make dof 0.1 in
  let target = Dadu_linalg.Vec3.make 1e6 1e6 1e6 in
  Ik.problem ~chain ~target ~theta0

let config iters = { Ik.default_config with max_iterations = iters; accuracy = 1e-9 }

(* Words allocated per iteration in steady state, measured over
   [long - short] iterations. *)
let words_per_iter ~short ~long solve =
  solve (config 10);
  (* warm *)
  let w0 = Gc.minor_words () in
  solve (config short);
  let w1 = Gc.minor_words () in
  solve (config long);
  let w2 = Gc.minor_words () in
  ((w2 -. w1) -. (w1 -. w0)) /. float_of_int (long - short)

let check_zero name solve =
  let per_iter = words_per_iter ~short:200 ~long:1200 solve in
  Alcotest.(check (float 0.)) (name ^ ": minor words per iteration") 0. per_iter

(* The link-major speculation kernel itself, without the solver driver
   around it: repeated sweeps on warm buffers must allocate exactly
   nothing — no closures, no boxed floats, no temporaries. *)
let test_speculation_kernel_zero () =
  let dof = 30 and count = 64 in
  let chain = Robots.eval_chain ~dof in
  let scratch = Fk.make_scratch () in
  Fk.precompile scratch chain;
  let theta = Array.make dof 0.1 in
  let dtheta = Array.make dof 0.02 in
  let coeffs = Array.init count (fun k -> float_of_int (k + 1) /. 64.) in
  let pos = Array.make (3 * count) 0. in
  let err2 = Array.make count 0. in
  let sweep () =
    Fk.speculate_range_into ~scratch ~pos ~err2 ~tx:1e6 ~ty:1e6 ~tz:1e6 chain
      ~theta ~dtheta ~coeffs ~stride:count ~lo:0 ~hi:count
  in
  sweep ();
  (* warm *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    sweep ()
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "kernel minor words per sweep" 0.
    ((w1 -. w0) /. 1000.)

let test_quick_ik_12dof () =
  let p = unreachable_problem ~dof:12 in
  let ws = Workspace.create ~dof:12 in
  check_zero "quick_ik seq 12dof" (fun config ->
      ignore (Quick_ik.solve ~speculations:64 ~workspace:ws ~config p))

let test_quick_ik_30dof () =
  let p = unreachable_problem ~dof:30 in
  let ws = Workspace.create ~dof:30 in
  check_zero "quick_ik seq 30dof" (fun config ->
      ignore (Quick_ik.solve ~speculations:64 ~workspace:ws ~config p))

let test_quick_ik_100dof () =
  let p = unreachable_problem ~dof:100 in
  let ws = Workspace.create ~dof:100 in
  check_zero "quick_ik seq 100dof" (fun config ->
      ignore (Quick_ik.solve ~speculations:16 ~workspace:ws ~config p))

let test_jt_serial () =
  let p = unreachable_problem ~dof:30 in
  let ws = Workspace.create ~dof:30 in
  check_zero "jt_serial 30dof" (fun config ->
      ignore (Jt_serial.solve ~workspace:ws ~config p))

let test_jt_buss () =
  let p = unreachable_problem ~dof:30 in
  let ws = Workspace.create ~dof:30 in
  check_zero "jt_buss 30dof" (fun config ->
      ignore (Jt_buss.solve ~workspace:ws ~config p))

let test_jt_linesearch () =
  let p = unreachable_problem ~dof:30 in
  let ws = Workspace.create ~dof:30 in
  check_zero "jt_linesearch 30dof" (fun config ->
      ignore (Jt_linesearch.solve ~workspace:ws ~config p))

let test_dls () =
  let p = unreachable_problem ~dof:30 in
  let ws = Workspace.create ~dof:30 in
  check_zero "dls 30dof" (fun config ->
      ignore (Dls.solve ~workspace:ws ~config p))

(* The wave-fused row-scoring kernel (score_rows_into): repeated sweeps
   over a warm lane-major candidate plane with per-row targets — the
   steady state of the prepare phase's scoring pass — must allocate
   exactly nothing per candidate score. *)
let test_score_rows_kernel_zero () =
  let dof = 30 and rows = 20 in
  let chain = Robots.eval_chain ~dof in
  let scratch = Fk.make_scratch () in
  Fk.precompile scratch chain;
  let tstride = dof in
  let thetas = Array.init (rows * tstride) (fun i -> 0.01 *. float_of_int i) in
  let txs = Array.init rows (fun k -> 0.5 +. (0.01 *. float_of_int k)) in
  let tys = Array.make rows (-0.3) in
  let tzs = Array.make rows 1.1 in
  let pos = Array.make (3 * rows) 0. in
  let err2 = Array.make rows 0. in
  let sweep () =
    Fk.score_rows_into ~scratch ~pos ~err2 ~txs ~tys ~tzs chain ~thetas
      ~tstride ~stride:rows ~lo:0 ~hi:rows
  in
  sweep ();
  (* warm *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    sweep ()
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "row-scoring kernel minor words per sweep" 0.
    ((w1 -. w0) /. 1000.)

(* A sequential wave through choose_wave on warm scratch, perturbation-
   free candidate sets (theta0 / cache / library / zero): assembly,
   scoring and the argmins stay out of the allocator, so a wave of [n]
   requests allocates exactly its [n]-element result array — [n + 1]
   words.  Perturbed slots are excluded because each one seeds a fresh
   Rng. *)
let test_choose_wave_exact () =
  let dof = 30 in
  let chain = Robots.eval_chain ~dof in
  let library = Dadu_service.Posture_library.build ~chain ~count:128 ~seed:7 () in
  let module Sel = Dadu_service.Seed_select in
  let cache_seed = Some (Array.make dof 0.1) in
  List.iter
    (fun wave ->
      let specs =
        Array.init wave (fun i ->
            let tx = 0.8 +. (0.01 *. float_of_int i) in
            {
              Sel.ordinal = i;
              chain;
              tx;
              ty = -0.3;
              tz = 1.1;
              theta0 = Array.make dof 0.2;
              session_seed = None;
              cache_seed;
              library = Some library;
              library_index =
                Dadu_service.Posture_library.nearest_index library ~x:tx
                  ~y:(-0.3) ~z:1.1;
              candidates = 4;
              scale = 0.1;
              dst = Array.make dof 0.;
            })
      in
      let sel = Sel.create () in
      ignore (Sel.choose_wave sel specs);
      (* warm *)
      let w0 = Gc.minor_words () in
      for _ = 1 to 500 do
        ignore (Sel.choose_wave sel specs)
      done;
      let w1 = Gc.minor_words () in
      Alcotest.(check (float 0.))
        (Printf.sprintf "choose_wave minor words per wave of %d" wave)
        (float_of_int (wave + 1))
        ((w1 -. w0) /. 500.))
    [ 1; 8 ]

(* Parallel candidate evaluation allocates by design — the domain pool
   builds per-wave task bookkeeping — so it gets a documented slack bound
   rather than zero: the point is that the per-candidate FK work itself
   stays out of the allocator, leaving only O(pool) scheduling words.
   100 DOF keeps dof×Max above the dispatch cutover so the pool path (not
   the sequential fallback) is what gets measured. *)
let test_quick_ik_parallel_bounded () =
  let p = unreachable_problem ~dof:100 in
  let ws = Workspace.create ~dof:100 in
  let pool = Dadu_util.Domain_pool.create 2 in
  let per_iter =
    words_per_iter ~short:100 ~long:400 (fun config ->
        ignore
          (Quick_ik.solve ~speculations:64 ~mode:(Quick_ik.Parallel pool)
             ~workspace:ws ~config p))
  in
  Dadu_util.Domain_pool.shutdown pool;
  Alcotest.(check bool)
    (Printf.sprintf "parallel mode bounded (%.1f words/iter)" per_iter)
    true
    (per_iter < 2000.)

(* Reusing one workspace across many solves must not leak: total minor
   allocation for N repeat solves of the same problem stays constant per
   solve (result record + driver closures), independent of iteration
   count ceilings reached earlier. *)
let test_workspace_reuse_constant_per_solve () =
  let p = unreachable_problem ~dof:30 in
  let ws = Workspace.create ~dof:30 in
  let solve () = ignore (Quick_ik.solve ~speculations:64 ~workspace:ws ~config:(config 25) p) in
  solve ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    solve ()
  done;
  let w1 = Gc.minor_words () in
  let per_solve = (w1 -. w0) /. 10. in
  Alcotest.(check bool)
    (Printf.sprintf "per-solve constant is small (%.0f words)" per_solve)
    true
    (per_solve < 500.)

let () =
  Alcotest.run "dadu_alloc"
    [
      ( "steady-state zero allocation",
        [
          Alcotest.test_case "speculation kernel sweep" `Quick
            test_speculation_kernel_zero;
          Alcotest.test_case "quick_ik 64 spec, 12 DOF" `Quick test_quick_ik_12dof;
          Alcotest.test_case "quick_ik 64 spec, 30 DOF" `Quick test_quick_ik_30dof;
          Alcotest.test_case "quick_ik 16 spec, 100 DOF" `Slow test_quick_ik_100dof;
          Alcotest.test_case "jt_serial 30 DOF" `Quick test_jt_serial;
          Alcotest.test_case "jt_buss 30 DOF" `Quick test_jt_buss;
          Alcotest.test_case "jt_linesearch 30 DOF" `Quick test_jt_linesearch;
          Alcotest.test_case "dls 30 DOF" `Quick test_dls;
          Alcotest.test_case "wave-fused row-scoring kernel, 30 DOF" `Quick
            test_score_rows_kernel_zero;
        ] );
      ( "bounded allocation",
        [
          Alcotest.test_case "quick_ik parallel mode" `Slow
            test_quick_ik_parallel_bounded;
          Alcotest.test_case "choose_wave, constant per wave" `Quick
            test_choose_wave_exact;
          Alcotest.test_case "workspace reuse, constant per solve" `Quick
            test_workspace_reuse_constant_per_solve;
        ] );
    ]
