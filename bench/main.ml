(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Figure 4, Figure 5a/5b, Tables 1-3), runs the ablations from
   DESIGN.md, and times the actual OCaml kernels with Bechamel.

   Usage:  dune exec bench/main.exe [-- section ...]
   Sections: table1 fig4 fig5 table2 table3 ablation convergence dse
   robustness scorecard micro all (default all).  The serving path is
   measured end to end by perfbench/ (perfbench/METRICS.md).
   Scale knobs: DADU_TARGETS, DADU_MAX_ITERS, DADU_SPECS, DADU_SEED. *)

module Table = Dadu_util.Table
module Csv = Dadu_util.Csv
module E = Dadu_experiments

let results_dir = "results"

let ensure_results_dir () =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755

let write_csv name ~header rows =
  ensure_results_dir ();
  let path = Filename.concat results_dir name in
  Csv.write path ~header rows;
  Printf.printf "  [csv] %s\n%!" path

let heading title =
  Printf.printf "\n==== %s ====\n\n%!" title

(* The Figure 5 / Table 2 / Table 3 views share one measurement grid; it is
   collected lazily so `-- fig4` alone does not pay for it. *)
let grid = lazy (E.Measurements.collect (E.Runner.default_scale ()))

let run_table1 () =
  heading "Table 1: methods under evaluation";
  Table.print (E.Table1.to_table ())

let run_fig4 () =
  heading "Figure 4: iterations vs number of speculations";
  let rows = E.Fig4.run (E.Runner.default_scale ()) in
  Table.print (E.Fig4.to_table rows);
  print_newline ();
  print_string (E.Fig4.to_chart rows);
  write_csv "fig4.csv" ~header:E.Fig4.csv_header (E.Fig4.to_csv_rows rows)

let run_fig5 () =
  let m = Lazy.force grid in
  heading "Figure 5(a): iterations under various DOF manipulators";
  Table.print (E.Fig5.table_iterations m);
  print_newline ();
  print_string (E.Fig5.chart_iterations m);
  heading "Figure 5(b): computation load under various DOF manipulators";
  Table.print (E.Fig5.table_work m);
  print_newline ();
  print_string (E.Fig5.chart_work m);
  write_csv "fig5.csv" ~header:E.Fig5.csv_header (E.Fig5.to_csv_rows m)

let table2_rows = lazy (E.Table2.compute (Lazy.force grid))

let run_table2 () =
  let rows = Lazy.force table2_rows in
  heading "Table 2: performance under various IK methods and architectures";
  Table.print (E.Table2.to_table rows);
  Table.print (E.Table2.speedup_table rows);
  write_csv "table2.csv" ~header:E.Table2.csv_header (E.Table2.to_csv_rows rows)

let run_table3 () =
  let m = Lazy.force grid in
  let rows = E.Table3.compute m (Lazy.force table2_rows) in
  heading "Table 3: hardware platforms and energy per solve";
  Table.print (E.Table3.platform_table ());
  Table.print (E.Table3.to_table rows);
  Printf.printf "Energy efficiency vs TX1 (geomean): %.0fx (paper: ~776x)\n"
    (E.Table3.efficiency_vs_tx1 rows);
  write_csv "table3.csv" ~header:E.Table3.csv_header (E.Table3.to_csv_rows rows)

let run_ablation () =
  let scale = E.Runner.default_scale () in
  heading "Ablation A1: speculation strategy";
  Table.print (E.Ablation.strategy_table (E.Ablation.run_strategies scale));
  heading "Ablation A2: SSU count";
  let m = Lazy.force grid in
  Table.print (E.Ablation.ssu_table ~dof:100 (E.Ablation.run_ssus ~dof:100 m));
  heading "Ablation A3: fixed-point FKU datapath width";
  Table.print (E.Ablation.fixed_table (E.Ablation.run_fixed scale))

(* ---- serving layer ---- *)

(* A serving workload for the steady-state request benchmark: every target
   is visited twice, the second time from a new random start.  Rebuilt from
   the same seed per run so every run sees byte-identical input. *)
let serve_workload ~dof ~fresh_count =
  let open Dadu_kinematics in
  let chain = Robots.eval_chain ~dof in
  let rng = Dadu_util.Rng.create 2017 in
  let fresh =
    Array.init fresh_count (fun _ -> Dadu_core.Ik.random_problem rng chain)
  in
  let revisit =
    Array.map
      (fun (p : Dadu_core.Ik.problem) ->
        { p with Dadu_core.Ik.theta0 = Target.random_config rng chain })
      fresh
  in
  Array.append fresh revisit

(* ---- Bechamel micro-benchmarks of the real OCaml kernels ---- *)

let micro_tests () =
  let open Bechamel in
  let open Dadu_kinematics in
  let rng = Dadu_util.Rng.create 2024 in
  let chain100 = Robots.eval_chain ~dof:100 in
  let chain12 = Robots.eval_chain ~dof:12 in
  let q100 = Target.random_config rng chain100 in
  let q12 = Target.random_config rng chain12 in
  let scratch = Fk.make_scratch () in
  let j100 = Jacobian.position_jacobian chain100 q100 in
  let problem12 = Dadu_core.Ik.random_problem rng chain12 in
  let problem100 = Dadu_core.Ik.random_problem rng chain100 in
  let short = { Dadu_core.Ik.default_config with max_iterations = 25 } in
  [
    Test.make ~name:"fk-position-12dof"
      (Staged.stage (fun () -> ignore (Fk.position ~scratch chain12 q12)));
    Test.make ~name:"fk-position-100dof"
      (Staged.stage (fun () -> ignore (Fk.position ~scratch chain100 q100)));
    Test.make ~name:"jacobian-100dof"
      (Staged.stage (fun () -> ignore (Jacobian.position_jacobian chain100 q100)));
    Test.make ~name:"svd-3x100"
      (Staged.stage (fun () -> ignore (Dadu_linalg.Svd.decompose j100)));
    Test.make ~name:"jt-serial-25iter-100dof"
      (Staged.stage (fun () ->
           ignore (Dadu_core.Jt_serial.solve ~config:short problem100)));
    Test.make ~name:"quick-ik64-25iter-100dof"
      (Staged.stage (fun () ->
           ignore (Dadu_core.Quick_ik.solve ~speculations:64 ~config:short problem100)));
    Test.make ~name:"pinv-solve-12dof"
      (Staged.stage (fun () -> ignore (Dadu_core.Pinv_svd.solve problem12)));
  ]

let run_micro () =
  let open Bechamel in
  heading "Bechamel micro-benchmarks (actual OCaml kernels on this host)";
  let tests = micro_tests () in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"dadu" ~fmt:"%s/%s" tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Table.create ~title:"nanoseconds per run (OLS estimate)"
      [ ("kernel", Table.Left); ("ns/run", Table.Right) ]
  in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let add_row (name, ols) =
    let estimate =
      match Analyze.OLS.estimates ols with
      | Some (x :: _) -> Printf.sprintf "%.0f" x
      | Some [] | None -> "n/a"
    in
    Table.add_row table [ name; estimate ]
  in
  List.iter add_row rows;
  Table.print table

(* ---- steady-state Quick-IK kernel benchmark (JSON, regression-gated) ----

   Unlike the Bechamel micro section (whole solves, allocating entry path),
   this measures the steady-state inner loop the zero-allocation workspace
   work targets: one shared workspace, an unreachable target so the solver
   runs exactly [max_iterations], and per-iteration cost derived from the
   difference of two run lengths so per-solve constants cancel. *)

module Json = Dadu_util.Json

let bench_json_path = "BENCH_quickik.json"

module Stats = Dadu_util.Stats

let quickik_steady_state ~dof =
  let open Dadu_kinematics in
  let chain = Robots.eval_chain ~dof in
  let theta0 = Array.make dof 0.1 in
  let target = Dadu_linalg.Vec3.make 1e6 1e6 1e6 in
  let problem = Dadu_core.Ik.problem ~chain ~target ~theta0 in
  let ws = Dadu_core.Workspace.create ~dof in
  let solve iters =
    let config =
      { Dadu_core.Ik.default_config with max_iterations = iters; accuracy = 1e-9 }
    in
    ignore (Dadu_core.Quick_ik.solve ~speculations:64 ~workspace:ws ~config problem)
  in
  (* warm: candidate pools, FK scratches and the compiled chain *)
  solve 10;
  let w0 = Gc.minor_words () in
  solve 50;
  let w1 = Gc.minor_words () in
  solve 150;
  let w2 = Gc.minor_words () in
  let words_per_iter = ((w2 -. w1) -. (w1 -. w0)) /. 100. in
  let iters = 40 in
  let t =
    Stats.measure ~units:(float_of_int iters) (fun () -> solve iters)
  in
  (t, words_per_iter)

(* The raw link-major speculation kernel, measured without the solver
   driver around it: one sweep = 64 candidates through the whole chain
   plus the fused squared errors.  This isolates the kernel the tentpole
   optimization introduced from Jacobian/driver costs. *)
let speckernel_steady_state ~dof =
  let open Dadu_kinematics in
  let chain = Robots.eval_chain ~dof in
  let scratch = Fk.make_scratch () in
  Fk.precompile scratch chain;
  let count = 64 in
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
  for _ = 1 to 100 do
    sweep ()
  done;
  let w1 = Gc.minor_words () in
  let words_per_sweep = (w1 -. w0) /. 100. in
  let reps = 500 in
  let t =
    Stats.measure ~units:(float_of_int reps) (fun () ->
        for _ = 1 to reps do
          sweep ()
        done)
  in
  (t, words_per_sweep)

(* Steady-state cost of one cold one-shot request through
   [Service.solve_batch] (scheduler + fallback chain + metrics), serial:
   the number bench_diff gates so scheduler/tracing overhead cannot creep
   into the per-request allocation budget unnoticed. *)
let serve_steady_state ~dof =
  let module Svc = Dadu_service.Service in
  let problems = serve_workload ~dof ~fresh_count:32 in
  let n = Array.length problems in
  let service = Svc.create () in
  (* warm: per-domain workspaces built *)
  ignore (Svc.solve_batch service problems);
  ignore (Svc.solve_batch service problems);
  let batch () = ignore (Svc.solve_batch service problems) in
  let w0 = Gc.minor_words () in
  for _ = 1 to 5 do
    batch ()
  done;
  let w1 = Gc.minor_words () in
  let words_per_request = (w1 -. w0) /. float_of_int (5 * n) in
  let t = Stats.measure ~units:(float_of_int n) batch in
  (t, words_per_request)

(* Cold-start vs library-seeded Quick-IK over a fixed reachable workload:
   the informational fields pin the acceptance criterion (seeded mean
   iterations to the paper accuracy strictly below cold), while the gated
   metrics price the seed selection itself — one perturbation-free
   4-candidate selection (theta0 / session / library NN / zero) as a
   one-request [choose_wave] on warm scratch.  The waves, library rows
   included, are built before the timed loop, so the loop allocates only
   each wave's result array. *)
let seeded_steady_state ~dof =
  let open Dadu_kinematics in
  let module Sel = Dadu_service.Seed_select in
  let chain = Robots.eval_chain ~dof in
  let library =
    Dadu_service.Posture_library.build ~chain ~count:256 ~seed:42 ()
  in
  let rng = Dadu_util.Rng.create 17 in
  let problems =
    Array.init 40 (fun _ -> Dadu_core.Ik.random_problem rng chain)
  in
  let ws = Dadu_core.Workspace.create ~dof in
  let config = { Dadu_core.Ik.default_config with max_iterations = 2000 } in
  let solve p =
    Dadu_core.Quick_ik.solve ~speculations:64 ~workspace:ws ~config p
  in
  let sel = Sel.create () in
  let waves ~session_seed =
    Array.mapi
      (fun i (p : Dadu_core.Ik.problem) ->
        let t = p.Dadu_core.Ik.target in
        let x = t.Dadu_linalg.Vec3.x
        and y = t.Dadu_linalg.Vec3.y
        and z = t.Dadu_linalg.Vec3.z in
        [|
          {
            Sel.ordinal = i;
            chain;
            tx = x;
            ty = y;
            tz = z;
            theta0 = p.Dadu_core.Ik.theta0;
            session_seed;
            library = Some library;
            library_index =
              Dadu_service.Posture_library.nearest_index library ~x ~y ~z;
            candidates = 4;
            scale = 0.1;
            dst = Array.make dof 0.;
          };
        |])
      problems
  in
  let mean_iters seeded =
    let waves = waves ~session_seed:None in
    let total = ref 0 in
    Array.iteri
      (fun i p ->
        let p =
          if not seeded then p
          else begin
            ignore (Sel.choose_wave sel waves.(i));
            { p with Dadu_core.Ik.theta0 = waves.(i).(0).Sel.dst }
          end
        in
        total := !total + (solve p).Dadu_core.Ik.iterations)
      problems;
    float_of_int !total /. float_of_int (Array.length problems)
  in
  let iters_cold = mean_iters false in
  let iters_seeded = mean_iters true in
  (* selection cost: session seed present, so no Perturbed slot (whose
     fresh Rng would allocate) *)
  let timed = waves ~session_seed:(Some (Array.make dof 0.1)) in
  let reps = 100 in
  let sweep () =
    for i = 0 to reps - 1 do
      ignore (Sel.choose_wave sel timed.(i mod Array.length timed))
    done
  in
  sweep ();
  (* warm *)
  let w0 = Gc.minor_words () in
  sweep ();
  let w1 = Gc.minor_words () in
  sweep ();
  sweep ();
  let w2 = Gc.minor_words () in
  let words_per_iter = ((w2 -. w1) -. (w1 -. w0)) /. float_of_int reps in
  let t = Stats.measure ~units:(float_of_int reps) sweep in
  (t, words_per_iter, iters_cold, iters_seeded)

(* Steady-state cost of one candidate scoring through the wave-fused
   prepare path: one [Seed_select.choose_wave] over a 16-request wave at
   5 candidates each, run sequentially (no pool) so the gated number
   prices the SoA kernel and wave bookkeeping, not domain scheduling. *)
let prepare_steady_state ~dof =
  let open Dadu_kinematics in
  let module Sel = Dadu_service.Seed_select in
  let chain = Robots.eval_chain ~dof in
  let library =
    Dadu_service.Posture_library.build ~chain ~count:256 ~seed:42 ()
  in
  let rng = Dadu_util.Rng.create 23 in
  let waves = 16 and candidates = 5 in
  let problems =
    Array.init waves (fun _ -> Dadu_core.Ik.random_problem rng chain)
  in
  let session_seed = Some (Array.make dof 0.1) in
  let specs =
    Array.mapi
      (fun i (p : Dadu_core.Ik.problem) ->
        let t = p.Dadu_core.Ik.target in
        {
          Sel.ordinal = i;
          chain;
          tx = t.Dadu_linalg.Vec3.x;
          ty = t.Dadu_linalg.Vec3.y;
          tz = t.Dadu_linalg.Vec3.z;
          theta0 = p.Dadu_core.Ik.theta0;
          session_seed;
          library = Some library;
          library_index =
            Dadu_service.Posture_library.nearest_index library
              ~x:t.Dadu_linalg.Vec3.x ~y:t.Dadu_linalg.Vec3.y
              ~z:t.Dadu_linalg.Vec3.z;
          candidates;
          scale = 0.1;
          dst = Array.make dof 0.;
        })
      problems
  in
  let sel = Sel.create () in
  let wave () = ignore (Sel.choose_wave sel specs) in
  let cands = float_of_int (waves * candidates) in
  wave ();
  (* warm *)
  let reps = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    wave ()
  done;
  let w1 = Gc.minor_words () in
  for _ = 1 to 2 * reps do
    wave ()
  done;
  let w2 = Gc.minor_words () in
  let words_per_cand = ((w2 -. w1) -. (w1 -. w0)) /. float_of_int reps /. cands in
  let t =
    Stats.measure ~units:(float_of_int reps *. cands) (fun () ->
        for _ = 1 to reps do
          wave ()
        done)
  in
  (t, words_per_cand)

(* The session workload's path: 40 waypoint targets generated by FK
   along a joint-space sine sweep around a well-conditioned base posture
   (guaranteed reachable at every DOF, and cyclic so the path never
   drifts toward a workspace boundary the way a straight joint-space
   line does), with amplitude scaled so consecutive targets sit ~1.5 cm
   apart. *)
let session_path ~dof =
  let open Dadu_kinematics in
  let chain = Robots.eval_chain ~dof in
  let scratch = Fk.make_scratch () in
  let base = Array.make dof 0.1 in
  let dir = Array.init dof (fun i -> if i land 1 = 0 then 1.0 else -0.7) in
  (* probe the local Cartesian gain of the joint-space direction, then
     pick a sine amplitude whose worst-case per-waypoint Cartesian step
     (gain * amp * omega) is ~1.5 cm *)
  let dist a b =
    let open Dadu_linalg.Vec3 in
    sqrt (((a.x -. b.x) ** 2.) +. ((a.y -. b.y) ** 2.) +. ((a.z -. b.z) ** 2.))
  in
  let p0 = Fk.position ~scratch chain base in
  let p1 =
    Fk.position ~scratch chain
      (Array.mapi (fun i b -> b +. (0.01 *. dir.(i))) base)
  in
  let gain = dist p0 p1 /. 0.01 in
  let omega = 0.35 in
  let amp = 0.015 /. Float.max 1e-9 (gain *. omega) in
  let at k =
    Array.mapi
      (fun i b -> b +. (amp *. sin (omega *. float_of_int k) *. dir.(i)))
      base
  in
  (chain, Array.init 40 (fun k -> Fk.position ~scratch chain (at k)))

(* Temporal warm-starting along the session path: the session workload
   at kernel level.  Each Quick-IK solve starts from the previous
   waypoint's solution — the seed chain a trajectory session maintains.
   [iters_per_waypoint] (warm mean) is a gated, machine-independent
   metric: the temporal-coherence win the session subsystem exists for
   must not silently erode. *)
let session_steady_state ~dof =
  let open Dadu_kinematics in
  let chain, targets = session_path ~dof in
  let waypoints = Array.length targets in
  let ws = Dadu_core.Workspace.create ~dof in
  let config = { Dadu_core.Ik.default_config with max_iterations = 2_000 } in
  let seed = Array.make dof 0. in
  let cold_start = Chain.clamp_config chain (Array.make dof 0.) in
  let iters_cold = ref 0. and warm_total = ref 0 in
  let trajectory record =
    Array.blit cold_start 0 seed 0 dof;
    Array.iteri
      (fun k target ->
        let problem =
          Dadu_core.Ik.problem ~chain ~target ~theta0:(Array.copy seed)
        in
        let r = Dadu_core.Quick_ik.solve ~speculations:64 ~workspace:ws ~config problem in
        if record then
          if k = 0 then iters_cold := float_of_int r.Dadu_core.Ik.iterations
          else warm_total := !warm_total + r.Dadu_core.Ik.iterations;
        Array.blit r.Dadu_core.Ik.theta 0 seed 0 dof)
      targets
  in
  trajectory true;
  let iters_per_waypoint =
    float_of_int !warm_total /. float_of_int (waypoints - 1)
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to 5 do
    trajectory false
  done;
  let w1 = Gc.minor_words () in
  let words_per_waypoint = (w1 -. w0) /. float_of_int (5 * waypoints) in
  let t =
    Stats.measure ~units:(float_of_int waypoints) (fun () -> trajectory false)
  in
  (t, words_per_waypoint, !iters_cold, iters_per_waypoint)

(* Solver states taken from the session path: the first iteration of
   each warm waypoint (θ the previous waypoint's answer, Δθ and the 64
   step sizes that iteration computed), so the kernels timed on them take
   the paths they take in serving. *)
let session_states ~dof =
  let open Dadu_kinematics in
  let module Ik = Dadu_core.Ik in
  let chain, targets = session_path ~dof in
  let count = 64 in
  let ws = Dadu_core.Workspace.create ~dof in
  let solve ~max_iterations ~target ~theta0 =
    Dadu_core.Quick_ik.solve ~speculations:count ~workspace:ws
      ~config:{ Ik.default_config with max_iterations }
      (Ik.problem ~chain ~target ~theta0)
  in
  let seed = ref (Chain.clamp_config chain (Array.make dof 0.)) in
  let states = ref [] in
  Array.iteri
    (fun k target ->
      let theta0 = Array.copy !seed in
      if k > 0 && (solve ~max_iterations:1 ~target ~theta0).Ik.iterations = 1
      then
        states :=
          ( theta0,
            Array.copy ws.Dadu_core.Workspace.dtheta,
            Array.sub ws.Dadu_core.Workspace.coeffs 0 count,
            target.Dadu_linalg.Vec3.x,
            target.Dadu_linalg.Vec3.y,
            target.Dadu_linalg.Vec3.z )
          :: !states;
      seed := (solve ~max_iterations:2_000 ~target ~theta0).Ik.theta)
    targets;
  (chain, Array.of_list (List.rev !states))

(* Times [pass] (one kernel call per session state) and counts its
   words; ns and words are per call. *)
let per_state_steady_state ~states pass =
  pass ();
  (* warm *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 20 do
    pass ()
  done;
  let w1 = Gc.minor_words () in
  let calls = float_of_int (Array.length states) in
  let reps = 10 in
  let t =
    Stats.measure ~units:(float_of_int reps *. calls) (fun () ->
        for _ = 1 to reps do
          pass ()
        done)
  in
  (t, (w1 -. w0) /. (20. *. calls))

(* The filtered sweep Quick-IK runs ([Fk.speculate_argmin]) on the
   session-path states.  Also reports the share of sweeps that re-scored
   a range exactly and of those that declined the fast path. *)
let specargmin_steady_state (chain, states) =
  let open Dadu_kinematics in
  let count = 64 in
  let scratch = Fk.make_scratch () in
  let pos = Array.make (3 * count) 0. and err2 = Array.make count 0. in
  (* a loop, not Array.iter: its closure would be the only allocation *)
  let pass () =
    for i = 0 to Array.length states - 1 do
      let theta, dtheta, coeffs, tx, ty, tz = states.(i) in
      ignore
        (Fk.speculate_argmin ~scratch ~pos ~err2 ~tx ~ty ~tz chain ~theta
           ~dtheta ~coeffs ~stride:count ~lo:0 ~hi:count)
    done
  in
  let t, words = per_state_steady_state ~states pass in
  let c = Fk.filter_counts scratch in
  let per_sweep n = float_of_int n /. float_of_int c.Fk.sweeps in
  (t, words, per_sweep c.Fk.rescores, per_sweep c.Fk.declined)

(* The frames pass each of those iterations starts with: one
   [Fk.frames_into] at each session-path state's θ, the serial half of a
   Quick-IK iteration beside the sweep. *)
let frames_steady_state (chain, states) =
  let open Dadu_kinematics in
  let scratch = Fk.make_scratch () in
  let dst = Array.init (Chain.dof chain + 1) (fun _ -> Array.make 16 0.) in
  let pass () =
    for i = 0 to Array.length states - 1 do
      let theta, _, _, _, _, _ = states.(i) in
      Fk.frames_into ~scratch ~dst chain theta
    done
  in
  per_state_steady_state ~states pass

(* Words allocated so far: the minor heap's plus what went straight to
   the major heap (major minus promoted).  The minor count is
   Gc.minor_words: Gc.counters' own minor field undercounts the part of
   the minor heap in use (OCaml 5.1), so the difference of two readings
   would move with where the minor collections fall. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

(* Restart cost per journal record: one replay of a fixed synthetic
   journal (32 eval:30 sessions x 200 commits, replies shaped like the
   server's solved replies, ~7 MB) through [Server.replay_journal], the
   restart step of [Server.create].  The journal is written before
   anything is measured.  Words count minor plus direct-major
   allocations, so a buffer sized to the file or a list of every record
   shows up, not only the minor-heap churn. *)
let journal_replay_steady_state () =
  let module J = Dadu_service.Journal in
  let module Server = Dadu_service.Server in
  let open Dadu_kinematics in
  let dof = 30 and sessions = 32 and commits = 200 in
  let chain = Robots.eval_chain ~dof in
  let path = Filename.temp_file "dadu_bench" ".journal" in
  Sys.remove path;
  let rng = Dadu_util.Rng.create 7 in
  (match J.open_ path with
  | Error e -> failwith (Format.asprintf "%a" J.pp_load_error e)
  | Ok (j, _, _) ->
    let name s = Printf.sprintf "s%02d" s in
    for s = 0 to sessions - 1 do
      J.append j
        (J.Opened
           { session = name s; robot = Printf.sprintf "eval:%d" dof;
             chain_fp = Chain.fingerprint chain; dof })
    done;
    for o = 0 to commits - 1 do
      for s = 0 to sessions - 1 do
        let theta = Array.init dof (fun _ -> Dadu_util.Rng.float rng 6. -. 3.) in
        let reply =
          Printf.sprintf
            "{\"reply\":\"solved\",\"id\":%d,\"session\":%S,\"ordinal\":%d,\"status\":\"converged\",\"solver\":\"quick-ik\",\"iterations\":%d,\"error\":%.17g,\"fallbacks\":0,\"retries\":0,\"cache_hit\":false,\"session_hit\":true,\"deadline_exceeded\":false,\"theta\":[%s]}"
            ((s * commits) + o) (name s) o
            (1 + Dadu_util.Rng.int rng 3)
            (Dadu_util.Rng.float rng 1e-4)
            (String.concat "," (List.map (Printf.sprintf "%.17g") (Array.to_list theta)))
        in
        J.append j (J.Committed { session = name s; ordinal = o; theta = Some theta; reply })
      done
    done;
    J.close j);
  let records = float_of_int (sessions * (commits + 1)) in
  let replay () =
    match Server.replay_journal path with
    | Ok r -> J.close r.Server.journal
    | Error e -> failwith (Format.asprintf "%a" J.pp_load_error e)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      replay ();
      let w0 = allocated_words () in
      replay ();
      let w1 = allocated_words () in
      let t = Stats.measure ~units:records replay in
      (t, (w1 -. w0) /. records))

(* The dispatcher's reply path for one solved eval:30 session reply:
   encoded once ([Server.encode_reply]) and its commit record staged in
   place ([Journal.stage]); every 32 staged records go to a temp journal
   with one write and one flush, as the dispatcher writes a batch.  ns
   and words are per reply. *)
let reply_encode_steady_state () =
  let module J = Dadu_service.Journal in
  let module Server = Dadu_service.Server in
  let module Svc = Dadu_service.Service in
  let dof = 30 and batch = 32 in
  let rng = Dadu_util.Rng.create 11 in
  let theta = Array.init dof (fun _ -> Dadu_util.Rng.float rng 6. -. 3.) in
  let reply =
    Svc.Solved
      {
        result =
          {
            Dadu_core.Ik.theta;
            error = Dadu_util.Rng.float rng 1e-4;
            iterations = 2;
            speculations = 64;
            status = Dadu_core.Ik.Converged;
            svd_sweeps = 0;
          };
        solver = Dadu_service.Fallback.Quick_ik;
        fallbacks = 0;
        cache_hit = false;
        session_hit = true;
        deadline_exceeded = false;
        breaker_skips = 0;
        retries = 0;
        retry_converged = false;
        trail = [];
        latency_s = 0.;
      }
  in
  let path = Filename.temp_file "dadu_bench" ".journal" in
  Sys.remove path;
  match J.open_ path with
  | Error e -> failwith (Format.asprintf "%a" J.pp_load_error e)
  | Ok (j, _, _) ->
    let enc = Server.encoder () and staging = J.staging () in
    let run () =
      for i = 0 to batch - 1 do
        let ordinal = 500 + i in
        let payload =
          Server.encode_reply enc ~id:(1000 + i) ~session:(Some "s042") ~ordinal reply
        in
        J.stage staging
          (J.Committed { session = "s042"; ordinal; theta = Some theta; reply = payload })
      done;
      J.write_staged j staging
    in
    Fun.protect
      ~finally:(fun () ->
        J.close j;
        try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        run ();
        let rounds = 20 in
        let w0 = allocated_words () in
        for _ = 1 to rounds do
          run ()
        done;
        let w1 = allocated_words () in
        let t = Stats.measure ~units:(float_of_int batch) run in
        (t, (w1 -. w0) /. float_of_int (rounds * batch)))

let run_micro_json () =
  heading "Quick-IK steady-state kernel benchmark (JSON)";
  let isa = Dadu_kinematics.Fk.sweep_isa () in
  let table =
    Table.create
      ~title:
        ("steady state (filtered sweep: " ^ isa ^ " clone): quickik = \
         solver iteration (64 spec), \
         speckernel = one raw 64-candidate sweep, specargmin = one \
         filtered 64-candidate sweep on a session-path solver state, \
         frames = one frames pass on the same states, \
         serve-request = one \
         cold one-shot request through Service.solve_batch, prepare = one \
         candidate scoring through the wave-fused choose_wave (16 requests \
         x 5 candidates, sequential), session = one temporally warm-started \
         waypoint along a 40-point ~1.5 cm cyclic trajectory, \
         journal-replay = one record of a 32-session restart replay, \
         reply-encode = one solved session reply encoded and its journal \
         record staged, written 32 to a flush")
      [ ("benchmark", Table.Left); ("ns/iter", Table.Right);
        ("min ns", Table.Right); ("p50 ns", Table.Right);
        ("iqr ns", Table.Right); ("p95 ns", Table.Right);
        ("words/iter", Table.Right) ]
  in
  let entry name dof ((t : Stats.timing), words) =
    let ns x = x *. 1e9 in
    let iqr = t.Stats.q3 -. t.Stats.q1 in
    Table.add_row table
      [ name; Printf.sprintf "%.0f" (ns t.Stats.mean);
        Printf.sprintf "%.0f" (ns t.Stats.min);
        Printf.sprintf "%.0f" (ns t.Stats.median);
        Printf.sprintf "%.0f" (ns iqr); Printf.sprintf "%.0f" (ns t.Stats.p95);
        Printf.sprintf "%.2f" words ];
    (* Json.num, not Num: one poisoned statistic (a NaN mean from a
       zero-iteration run) must cost a null field, not the whole export *)
    Json.Obj
      [ ("name", Json.Str name);
        ("dof", Json.num (float_of_int dof));
        ("ns_per_iter", Json.num (ns t.Stats.mean));
        ("min_ns", Json.num (ns t.Stats.min));
        ("p50_ns", Json.num (ns t.Stats.median));
        ("iqr_ns", Json.num (ns iqr));
        ("p95_ns", Json.num (ns t.Stats.p95));
        ("words_per_iter", Json.num words) ]
  in
  let dofs = [ 12; 30; 100 ] in
  let states = List.map (fun dof -> (dof, session_states ~dof)) dofs in
  let benchmarks =
    List.map
      (fun dof ->
        entry (Printf.sprintf "quickik-seq-dof%d" dof) dof
          (quickik_steady_state ~dof))
      dofs
    @ List.map
        (fun dof ->
          entry (Printf.sprintf "speckernel64-dof%d" dof) dof
            (speckernel_steady_state ~dof))
        dofs
    @ List.map
        (fun (dof, st) ->
          let t, words, rescores, declined = specargmin_steady_state st in
          let json =
            entry (Printf.sprintf "specargmin64-dof%d" dof) dof (t, words)
          in
          match json with
          | Json.Obj fields ->
            Json.Obj
              (fields
              @ [ ("rescores_per_sweep", Json.num rescores);
                  ("declined_per_sweep", Json.num declined) ])
          | other -> other)
        states
    @ List.map
        (fun (dof, st) ->
          entry (Printf.sprintf "frames-dof%d" dof) dof (frames_steady_state st))
        states
    @ [ entry "serve-request-dof12" 12 (serve_steady_state ~dof:12) ]
    @ List.map
        (fun dof ->
          let t, words, cold, seeded = seeded_steady_state ~dof in
          let json = entry (Printf.sprintf "seeded-dof%d" dof) dof (t, words) in
          match json with
          | Json.Obj fields ->
            Json.Obj
              (fields
              @ [ ("iters_cold", Json.num cold);
                  ("iters_seeded", Json.num seeded) ])
          | other -> other)
        dofs
    @ List.map
        (fun dof ->
          let t, words, cold, per_wp = session_steady_state ~dof in
          let json =
            entry (Printf.sprintf "session-dof%d" dof) dof (t, words)
          in
          match json with
          | Json.Obj fields ->
            Json.Obj
              (fields
              @ [ ("iters_per_waypoint", Json.num per_wp);
                  ("iters_cold", Json.num cold) ])
          | other -> other)
        dofs
    @ List.map
        (fun dof ->
          entry (Printf.sprintf "prepare-dof%d" dof) dof
            (prepare_steady_state ~dof))
        dofs
    @ [ entry "journal-replay" 30 (journal_replay_steady_state ());
        entry "reply-encode-dof30" 30 (reply_encode_steady_state ()) ]
  in
  Table.print table;
  Json.write_file bench_json_path
    (Json.Obj
       [ ("schema", Json.Num 1.); ("sweep_isa", Json.Str isa);
         ("benchmarks", Json.List benchmarks) ]);
  Printf.printf "  [json] %s\n%!" bench_json_path

let run_scorecard () =
  heading "Reproduction scorecard";
  let claims = E.Scorecard.evaluate (Lazy.force grid) in
  Table.print (E.Scorecard.to_table claims);
  Printf.printf "overall: %s\n"
    (if E.Scorecard.all_pass claims then "reproduction holds"
     else "some claims FAILED — see rows above")

let run_robustness () =
  heading "Seed robustness (reduction across 5 independent workloads)";
  let rows = E.Robustness.run (E.Runner.default_scale ()) in
  Table.print (E.Robustness.to_table rows);
  List.iter
    (fun dof ->
      let lo, hi = E.Robustness.reduction_range rows ~dof in
      Printf.printf "reduction at %d DOF across seeds: %.1f%% .. %.1f%%\n" dof
        (100. *. lo) (100. *. hi))
    [ 12; 100 ]

let run_dse () =
  heading "Design-space exploration (100 DOF, measured Quick-IK iterations)";
  let m = Lazy.force grid in
  let iterations =
    match
      List.find_opt
        (fun (p : E.Measurements.per_dof) -> p.E.Measurements.dof = 100)
        m.E.Measurements.per_dof
    with
    | Some p ->
      Stdlib.max 1
        (int_of_float
           (Float.round p.E.Measurements.quick_ik.E.Workload.mean_iterations))
    | None -> 100
  in
  let evaluations =
    Dadu_accel.Design_space.sweep ~dof:100 ~speculations:64 ~iterations ()
  in
  Table.print (Dadu_accel.Design_space.to_table evaluations);
  Printf.printf
    "(the paper's 32 SSU / 1 GHz point sits on the Pareto front; * = non-dominated)\n"

let run_convergence () =
  heading "Convergence profiles (error vs iteration, 25 DOF)";
  let profiles = E.Convergence.run (E.Runner.default_scale ()) in
  Table.print (E.Convergence.to_table profiles);
  print_newline ();
  print_string (E.Convergence.to_chart profiles)

let sections =
  [
    ("table1", run_table1);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("table2", run_table2);
    ("table3", run_table3);
    ("ablation", run_ablation);
    ("convergence", run_convergence);
    ("dse", run_dse);
    ("robustness", run_robustness);
    ("scorecard", run_scorecard);
    ("micro", run_micro);
  ]

let () =
  (* `micro --json` switches the micro section to the steady-state kernel
     benchmark and writes BENCH_quickik.json for tools/bench_diff *)
  let argv = List.tl (Array.to_list Sys.argv) in
  let json_mode = List.mem "--json" argv in
  let args = List.filter (fun a -> a <> "--json") argv in
  let requested =
    match args with
    | _ :: _ when not (List.mem "all" args) -> args
    | _ -> List.map fst sections
  in
  let sections =
    if json_mode then
      List.map
        (fun (name, f) -> if name = "micro" then (name, run_micro_json) else (name, f))
        sections
    else sections
  in
  let scale = E.Runner.default_scale () in
  Format.printf "Dadu benchmark suite — %a@." E.Runner.pp_scale scale;
  Printf.printf "(paper fidelity: DADU_TARGETS=1000; see DESIGN.md section 4)\n";
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %S; available: %s all\n" name
          (String.concat " " (List.map fst sections));
        exit 2)
    requested
