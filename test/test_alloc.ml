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

(* The filtered sweep ([Fk.speculate_argmin]) on its paths, each
   confirmed through the scratch's counts: a fast-path winner, an exact
   re-score forced by duplicated coefficients, and a declined sweep whose
   angles pass 2²⁰.  None may allocate. *)
let test_filtered_sweep_zero () =
  let dof = 30 and count = 64 in
  let chain = Robots.eval_chain ~dof in
  let dtheta = Array.make dof 0.02 in
  let pos = Array.make (3 * count) 0. in
  let err2 = Array.make count 0. in
  let ladder = Array.init count (fun k -> float_of_int (k + 1) /. 64.) in
  let twins = Array.init count (fun k -> ladder.(k / 2)) in
  List.iter
    (fun (path, theta, coeffs, expect) ->
      let scratch = Fk.make_scratch () in
      let sweep () =
        ignore
          (Fk.speculate_argmin ~scratch ~pos ~err2 ~tx:3. ~ty:2. ~tz:1. chain
             ~theta ~dtheta ~coeffs ~stride:count ~lo:0 ~hi:count)
      in
      sweep ();
      (* warm *)
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        sweep ()
      done;
      let w1 = Gc.minor_words () in
      let c = Fk.filter_counts scratch in
      Alcotest.(check bool)
        (path ^ ": every sweep took this path")
        true
        (expect c = c.Fk.sweeps && c.Fk.sweeps = 1001);
      Alcotest.(check (float 0.)) (path ^ ": minor words per sweep") 0.
        ((w1 -. w0) /. 1000.))
    [
      ("fast path", Array.make dof 0.1, ladder, fun c ->
        c.Fk.sweeps - c.Fk.rescores - c.Fk.declined);
      ("re-score", Array.make dof 0.1, twins, fun c -> c.Fk.rescores);
      ("declined", Array.make dof 2e6, ladder, fun c -> c.Fk.declined);
    ]

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
   free candidate sets (theta0 / session / library / zero): assembly,
   scoring and the argmins stay out of the allocator, so a wave of [n]
   requests allocates exactly its [n]-element result array — [n + 1]
   words.  Perturbed slots are excluded because each one seeds a fresh
   Rng. *)
let test_choose_wave_exact () =
  let dof = 30 in
  let chain = Robots.eval_chain ~dof in
  let library = Dadu_service.Posture_library.build ~chain ~count:128 ~seed:7 () in
  let module Sel = Dadu_service.Seed_select in
  let session_seed = Some (Array.make dof 0.1) in
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
              session_seed;
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

(* The serving path of a `track`-shaped load, counted: 128 eval:30
   sessions opened the way the server opens them (each resolves its spec
   through [Problem_file.robot_of_spec]), then warm waypoints, one per
   session per batch of 128, built as the server builds them and run
   through [Service.solve_requests]; [after] sees each batch's requests
   and replies.  Every session carries the one shared eval:30 chain, and
   its fingerprint is a field read, so nothing per waypoint builds or
   hashes a chain.  Returns the minor words per warm waypoint. *)
let track_waypoint_words ~after =
  let module Pf = Dadu_service.Problem_file in
  let module Session = Dadu_service.Session in
  let module Svc = Dadu_service.Service in
  let resolve () =
    match Pf.robot_of_spec "eval:30" with
    | Ok chain -> chain
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "two resolutions of one spec are one chain" true
    (resolve () == resolve ());
  let n = 128 in
  let sessions =
    Array.init n (fun i -> Session.create ~name:(Printf.sprintf "s%d" i) ~chain:(resolve ()))
  in
  let svc = Svc.create () in
  (* session i tracks a line at 1.5 cm per waypoint from its own start *)
  let batch k =
    Array.mapi
      (fun i sess ->
        let chain = Session.chain sess in
        let target =
          Dadu_linalg.Vec3.make 4.0
            (1.0 +. (0.015 *. float_of_int k))
            (2.0 +. (0.01 *. float_of_int i))
        in
        Svc.request ~session:sess ~ordinal:(Session.next_ordinal sess)
          (Ik.problem ~chain ~target
             ~theta0:(Chain.clamp_config chain (Array.make (Chain.dof chain) 0.))))
      sessions
  in
  let run k =
    let requests = batch k in
    after requests (Svc.solve_requests svc requests)
  in
  for k = 0 to 3 do
    run k
  done;
  (* warm *)
  let rounds = 8 in
  let w0 = Gc.minor_words () in
  for k = 4 to 3 + rounds do
    run k
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (rounds * n)

(* The solve alone.  The bound leaves room for the solve's own records
   (about 620 words) and fails if the FK re-verification of a converged
   answer builds a fresh FK scratch (about 860 words in all), let alone
   if a waypoint folds a 30-DOF fingerprint in boxed Int64 (6,555 words
   a fold). *)
let test_track_waypoint_words () =
  let per_waypoint = track_waypoint_words ~after:(fun _ _ -> ()) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per warm waypoint, at most 720" per_waypoint)
    true (per_waypoint <= 720.)

(* The dispatcher's whole reply path on the same load: each reply
   encoded once, its commit record staged in place, and each batch's
   records written to a journal with one flush (about 755 words in all).
   The bound fails if the FK re-verification builds a fresh FK scratch
   (about 990 words), and on a Printf-built reply (about 1,200 words)
   with a record encoded through copies (about 700). *)
let test_track_reply_path_words () =
  let module Journal = Dadu_service.Journal in
  let module Server = Dadu_service.Server in
  let module Svc = Dadu_service.Service in
  let path = Filename.temp_file "dadu_alloc" ".wal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let journal =
    match Journal.open_ path with
    | Ok (j, _, _) -> j
    | Error e -> Alcotest.fail (Format.asprintf "%a" Journal.pp_load_error e)
  in
  let enc = Server.encoder () and staging = Journal.staging () in
  let names = Array.init 128 (Printf.sprintf "s%d") in
  let after (requests : Svc.request array) replies =
    Array.iteri
      (fun i (reply : Svc.reply) ->
        let session = names.(i) in
        let ordinal = Option.value ~default:0 requests.(i).Svc.ordinal in
        let payload =
          Server.encode_reply enc ~id:i ~session:(Some session) ~ordinal reply
        in
        let theta =
          match reply with
          | Svc.Solved { result; _ } when result.Ik.status = Ik.Converged ->
            Some result.Ik.theta
          | _ -> None
        in
        Journal.stage staging
          (Journal.Committed { session; ordinal; theta; reply = payload }))
      replies;
    Journal.write_staged journal staging
  in
  let per_waypoint = track_waypoint_words ~after in
  Journal.close journal;
  Alcotest.(check bool)
    (Printf.sprintf
       "%.0f minor words per warm waypoint with its reply and record, at most 880"
       per_waypoint)
    true (per_waypoint <= 880.)

(* The frames pass every solver iteration starts with, alone: warm
   frames on a compiled scratch must allocate nothing. *)
let test_frames_pass_zero () =
  let dof = 100 in
  let chain = Robots.eval_chain ~dof in
  let scratch = Fk.make_scratch () in
  let dst = Array.init (dof + 1) (fun _ -> Array.make 16 0.) in
  let q = Array.init dof (fun i -> 0.01 *. float_of_int i) in
  Fk.frames_into ~scratch ~dst chain q;
  (* warm *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Fk.frames_into ~scratch ~dst chain q
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "frames pass minor words" 0. ((w1 -. w0) /. 1000.)

(* The server's [stats] reply reads [Metrics.counters] on a reader thread
   while the dispatcher records every reply into the same registry: the
   read must not copy or sort the samples, which a registry holds one
   per request (a summarizing snapshot copies and sorts two 100 k-float
   arrays here: 22.7 M words, the sort boxing each comparison's floats).
   Arrays that large go straight to the major heap, so the count adds
   direct major allocations to the minor words. *)
let test_stats_counters_words () =
  let module M = Dadu_service.Metrics in
  let m = M.create () in
  for i = 1 to 100_000 do
    M.record m
      (M.Solved
         {
           converged = true;
           diverged = false;
           fallbacks = 0;
           session = true;
           session_hit = true;
           deadline_exceeded = false;
           breaker_skips = 0;
           retries = 0;
           retry_converged = false;
           latency_s = 1e-4 *. float_of_int (i mod 97);
           iterations = 1 + (i mod 5);
         })
  done;
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. (major -. promoted)
  in
  ignore (M.counters m);
  let w0 = allocated () in
  let c = M.counters m in
  let w1 = allocated () in
  Alcotest.(check int) "requests counted" 100_000 c.M.requests;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for a counters read, at most 100" (w1 -. w0))
    true
    (w1 -. w0 <= 100.)

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
          Alcotest.test_case "filtered sweep: fast path and both fallbacks"
            `Quick test_filtered_sweep_zero;
          Alcotest.test_case "frames pass, 100 DOF" `Quick test_frames_pass_zero;
        ] );
      ( "steady-state serving",
        [
          Alcotest.test_case "track waypoint words, 128 eval:30 sessions" `Quick
            test_track_waypoint_words;
          Alcotest.test_case "track reply path words, 128 eval:30 sessions" `Quick
            test_track_reply_path_words;
        ] );
      ( "bounded allocation",
        [
          Alcotest.test_case "choose_wave, constant per wave" `Quick
            test_choose_wave_exact;
          Alcotest.test_case "workspace reuse, constant per solve" `Quick
            test_workspace_reuse_constant_per_solve;
          Alcotest.test_case "stats counters read, 100 k samples" `Quick
            test_stats_counters_words;
        ] );
    ]
