(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Figure 4, Figure 5a/5b, Tables 1-3), runs the ablations from
   DESIGN.md, and times the actual OCaml kernels with Bechamel.

   Usage:  dune exec bench/main.exe [-- section ...]
   Sections: table1 fig4 fig5 table2 table3 ablation convergence dse
   robustness scorecard serve serve-parallel serve-live micro all
   (default all).
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

let run_serve () =
  heading "Service: batched serving (scheduler + warm-start cache + fallback)";
  let open Dadu_kinematics in
  let chain = Robots.eval_chain ~dof:25 in
  let rng = Dadu_util.Rng.create 2017 in
  let fresh = Array.init 120 (fun _ -> Dadu_core.Ik.random_problem rng chain) in
  (* a serving workload revisits targets: duplicate every fresh problem with
     a new random start, so the second visit can warm-start from the cache *)
  let revisit =
    Array.map
      (fun (p : Dadu_core.Ik.problem) ->
        { p with Dadu_core.Ik.theta0 = Target.random_config rng chain })
      fresh
  in
  let problems = Array.append fresh revisit in
  let pool =
    Dadu_util.Domain_pool.create (Dadu_util.Domain_pool.recommended_size ())
  in
  let service = Dadu_service.Service.create ~pool () in
  let t0 = Unix.gettimeofday () in
  let _replies = Dadu_service.Service.solve_batch service problems in
  let wall = Unix.gettimeofday () -. t0 in
  Dadu_util.Domain_pool.shutdown pool;
  print_string (Dadu_service.Service.render_metrics service);
  Printf.printf "\n%d problems (each target visited twice) in %.2f s — %.0f problems/s\n"
    (Array.length problems) wall
    (float_of_int (Array.length problems) /. wall)

(* A serving workload for the parallel-scheduler benchmarks: every fresh
   problem is revisited with a new random start, so the second visit can
   warm-start from the cache.  Rebuilt from the same seed per run so each
   pool size sees byte-identical input. *)
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

let run_serve_parallel () =
  heading
    "Service: parallel batch execution (serial prepare/commit, parallel solve)";
  let module Svc = Dadu_service.Service in
  let module Ws = Dadu_core.Workspace in
  let statuses replies =
    Array.map
      (function
        | Svc.Solved { result; solver; cache_hit; _ } ->
          (result.Dadu_core.Ik.status, solver, cache_hit)
        | Svc.Rejected _ | Svc.Faulted _ -> assert false)
      replies
  in
  let run_one pool_size =
    let problems = serve_workload ~dof:25 ~fresh_count:120 in
    let pool =
      if pool_size > 1 then Some (Dadu_util.Domain_pool.create pool_size)
      else None
    in
    let service =
      match pool with
      | Some p -> Svc.create ~pool:p ()
      | None -> Svc.create ()
    in
    let s0 = Ws.local_stats () in
    let t0 = Unix.gettimeofday () in
    let replies = Svc.solve_batch service problems in
    let wall = Unix.gettimeofday () -. t0 in
    let s1 = Ws.local_stats () in
    let m = Svc.metrics service in
    Option.iter Dadu_util.Domain_pool.shutdown pool;
    let created = s1.Ws.created - s0.Ws.created in
    let reused = s1.Ws.reused - s0.Ws.reused in
    (wall, m, statuses replies, created, reused, Array.length problems)
  in
  let pool_sizes = [ 1; 2; 4 ] in
  let runs = List.map (fun p -> (p, run_one p)) pool_sizes in
  let serial_wall, _, serial_statuses, _, _, _ = List.assoc 1 runs in
  let table =
    Table.create ~title:"240 requests at 25 DOF, each target visited twice"
      [ ("pool", Table.Right); ("wall s", Table.Right); ("req/s", Table.Right);
        ("p50 ms", Table.Right); ("p95 ms", Table.Right);
        ("p99 ms", Table.Right); ("speedup", Table.Right);
        ("prep/work/commit ms", Table.Right); ("serial %", Table.Right);
        ("ws new/reused", Table.Right) ]
  in
  List.iter
    (fun (pool_size, (wall, m, statuses, created, reused, n)) ->
      let lat proj =
        match m.Dadu_service.Metrics.latency with
        | Some s -> Printf.sprintf "%.2f" (1e3 *. proj s)
        | None -> "n/a"
      in
      Table.add_row table
        [ string_of_int pool_size; Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.0f" (float_of_int n /. wall);
          lat (fun s -> s.Dadu_util.Histogram.p50);
          lat (fun s -> s.Dadu_util.Histogram.p95);
          lat (fun s -> s.Dadu_util.Histogram.p99);
          Printf.sprintf "%.2fx" (serial_wall /. wall);
          Printf.sprintf "%.1f/%.1f/%.1f"
            (1e3 *. m.Dadu_service.Metrics.prepare_s)
            (1e3 *. m.Dadu_service.Metrics.work_s)
            (1e3 *. m.Dadu_service.Metrics.commit_s);
          (match Dadu_service.Metrics.serial_fraction m with
          | Some f -> Printf.sprintf "%.1f" (100. *. f)
          | None -> "n/a");
          Printf.sprintf "%d/%d" created reused ];
      if statuses <> serial_statuses then
        Printf.printf
          "  WARNING: pool size %d produced different replies than serial!\n"
          pool_size)
    runs;
  Table.print table;
  Printf.printf
    "\n(replies checked byte-identical across pool sizes; ws new/reused are\n\
    \ Workspace.local pool deltas — parallel runs build one workspace per\n\
    \ domain, then reuse; prep/work/commit are the scheduler wave-phase\n\
    \ wall-time totals from the metrics registry)\n"

(* ---- open-loop load benchmark: per-request vs lockstep serving ----

   Closed-loop numbers (above) hide queueing: the next request only
   arrives when the previous one finished.  Here a seeded Poisson
   process generates arrivals at a target offered load — multiples of
   the per-request path's measured closed-loop capacity — and both
   execution modes drain the same arrival schedule.  Sojourn = queue
   wait + service, measured per request from its arrival time. *)

let run_serve_open_loop () =
  heading "Service: open-loop Poisson arrivals, 100 DOF (per-request vs lockstep)";
  let module Svc = Dadu_service.Service in
  let dof = 100 in
  let n = 96 in
  let pool_size = Dadu_util.Domain_pool.recommended_size () in
  let chain = Dadu_kinematics.Robots.eval_chain ~dof in
  let problems seed =
    let rng = Dadu_util.Rng.create seed in
    Array.init n (fun _ -> Dadu_core.Ik.random_problem rng chain)
  in
  let with_service ~lockstep f =
    let pool =
      if pool_size > 1 then Some (Dadu_util.Domain_pool.create pool_size)
      else None
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Dadu_util.Domain_pool.shutdown pool)
      (fun () ->
        let svc =
          Svc.create ?pool ~config:{ Svc.default_config with Svc.lockstep } ()
        in
        (* warm per-domain workspaces and the lane bank *)
        ignore (Svc.solve_batch svc (problems 11));
        f svc)
  in
  (* the per-request path's closed-loop capacity calibrates offered load *)
  let capacity_rps =
    with_service ~lockstep:false (fun svc ->
        let ps = problems 13 in
        let t0 = Unix.gettimeofday () in
        ignore (Svc.solve_batch svc ps);
        float_of_int n /. (Unix.gettimeofday () -. t0))
  in
  (* seeded exponential inter-arrivals: both modes at a given load drain
     the byte-identical schedule *)
  let arrivals ~rate ~seed =
    let rng = Dadu_util.Rng.create seed in
    let t = ref 0. in
    Array.init n (fun _ ->
        t := !t -. (log (1. -. Dadu_util.Rng.float rng 1.) /. rate);
        !t)
  in
  let run_mode ~lockstep ~mult =
    with_service ~lockstep (fun svc ->
        let rate = mult *. capacity_rps in
        let ps = problems 17 in
        let arr = arrivals ~rate ~seed:23 in
        let done_t = Array.make n 0. in
        let t0 = Unix.gettimeofday () in
        let idx = ref 0 in
        while !idx < n do
          let elapsed = Unix.gettimeofday () -. t0 in
          if arr.(!idx) > elapsed then Unix.sleepf (arr.(!idx) -. elapsed)
          else begin
            (* batch every request that has arrived by now *)
            let hi = ref !idx in
            while !hi < n && arr.(!hi) <= elapsed do
              incr hi
            done;
            ignore (Svc.solve_batch svc (Array.sub ps !idx (!hi - !idx)));
            let t_done = Unix.gettimeofday () -. t0 in
            for j = !idx to !hi - 1 do
              done_t.(j) <- t_done
            done;
            idx := !hi
          end
        done;
        let achieved = float_of_int n /. done_t.(n - 1) in
        let sojourn = Array.init n (fun i -> done_t.(i) -. arr.(i)) in
        Array.sort compare sojourn;
        (rate, achieved, sojourn.(n / 2), sojourn.(95 * n / 100)))
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "%d requests at %d DOF, pool %d; offered load relative to the \
            per-request closed-loop capacity (%.0f req/s)"
           n dof pool_size capacity_rps)
      [ ("mode", Table.Left); ("offered", Table.Right);
        ("offered req/s", Table.Right); ("achieved req/s", Table.Right);
        ("sojourn p50 ms", Table.Right); ("sojourn p95 ms", Table.Right) ]
  in
  let rows = ref [] in
  List.iter
    (fun (label, lockstep) ->
      List.iter
        (fun mult ->
          let rate, achieved, p50, p95 = run_mode ~lockstep ~mult in
          Table.add_row table
            [ label; Printf.sprintf "%.0fx" mult; Printf.sprintf "%.0f" rate;
              Printf.sprintf "%.0f" achieved;
              Printf.sprintf "%.1f" (1e3 *. p50);
              Printf.sprintf "%.1f" (1e3 *. p95) ];
          rows :=
            [ label; Printf.sprintf "%.0f" mult; Printf.sprintf "%.1f" rate;
              Printf.sprintf "%.1f" achieved; Printf.sprintf "%.4f" p50;
              Printf.sprintf "%.4f" p95 ]
            :: !rows)
        [ 1.; 4.; 16. ])
    [ ("per-request", false); ("lockstep", true) ];
  Table.print table;
  write_csv "openloop.csv"
    ~header:
      [ "mode"; "offered_x"; "offered_rps"; "achieved_rps"; "sojourn_p50_s";
        "sojourn_p95_s" ]
    (List.rev !rows);
  Printf.printf
    "\n(same seeded arrival schedule per offered load in both modes;\n\
    \ sojourn = queue wait + service, from each request's arrival)\n"

(* ---- live-server load test: open-loop Poisson over a Unix socket ----

   The open-loop section above drives the Service in process; this one
   drives the whole server — framing, reader threads, the bounded
   admission queue, the dispatcher — through a real Unix socket, the
   deployment shape of `dadu serve`.  A seeded Poisson process offers
   load at multiples of the measured closed-loop capacity; sojourn is
   measured per request from its scheduled arrival to its reply frame,
   and the shed rate counts typed [overloaded] replies.  The CI
   serve-live job uploads results/serve_live.csv as an artifact. *)

let run_serve_live () =
  heading "Live server: open-loop Poisson arrivals over a Unix socket (12 DOF)";
  let module Server = Dadu_service.Server in
  let module Svc = Dadu_service.Service in
  let module Pf = Dadu_service.Problem_file in
  let module Json = Dadu_util.Json in
  let dof = 12 in
  let n = 240 in
  let queue_capacity = 64 in
  let pool_size = Dadu_util.Domain_pool.recommended_size () in
  let chain = Dadu_kinematics.Robots.eval_chain ~dof in
  let rng = Dadu_util.Rng.create 2026 in
  let mk_targets count =
    Array.init count (fun _ ->
        (Dadu_core.Ik.random_problem rng chain).Dadu_core.Ik.target)
  in
  let path = Filename.temp_file "dadu_live" ".sock" in
  Sys.remove path;
  let pool =
    if pool_size > 1 then Some (Dadu_util.Domain_pool.create pool_size)
    else None
  in
  let config =
    {
      Server.default_config with
      Server.service = { Svc.default_config with Svc.chunk = 16 };
      queue_capacity;
      max_batch = 64;
    }
  in
  let server = Server.create ?pool ~config () in
  let runner =
    Thread.create (fun () -> Server.run server ~listen:(Server.Unix_sock path)) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join runner;
      Option.iter Dadu_util.Domain_pool.shutdown pool;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let fd =
    let rec go tries =
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> fd
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
        when tries < 200 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Thread.delay 0.01;
        go (tries + 1)
    in
    go 0
  in
  let rd = Pf.frame_reader fd in
  let oc = Unix.out_channel_of_descr fd in
  (* reply ledger, filled by the reader thread; ids are globally unique
     across every mode of the run *)
  let total = 8 * n in
  let reply_t = Array.make total 0. in
  let reply_shed = Array.make total false in
  let replied = ref 0 in
  let rlock = Mutex.create () in
  let reader () =
    let running = ref true in
    while !running do
      match Pf.read_frame_fd rd with
      | Pf.Eof | Pf.Timed_out _ | Pf.Frame_error _ -> running := false
      | Pf.Frame payload ->
        (match Json.of_string payload with
        | Error _ -> ()
        | Ok json ->
          let id =
            Option.bind (Json.member "id" json) (fun j ->
                Option.map int_of_float (Json.to_float j))
          in
          let kind = Option.bind (Json.member "reply" json) Json.to_str in
          (match (id, kind) with
          | Some id, Some ("solved" | "overloaded" | "rejected" | "faulted")
            when id >= 0 && id < total ->
            Mutex.lock rlock;
            reply_t.(id) <- Unix.gettimeofday ();
            reply_shed.(id) <- kind = Some "overloaded";
            incr replied;
            Mutex.unlock rlock
          | _ -> ()))
    done
  in
  let rd = Thread.create reader () in
  let next_id = ref 0 in
  let send_solve target =
    let id = !next_id in
    incr next_id;
    let open Dadu_linalg.Vec3 in
    Pf.write_frame oc
      (Printf.sprintf
         "{\"op\":\"solve\",\"id\":%d,\"robot\":\"eval:%d\",\"target\":[%.17g,%.17g,%.17g]}"
         id dof target.x target.y target.z);
    flush oc;
    id
  in
  let await upto =
    while
      Mutex.lock rlock;
      let done_ = !replied >= upto in
      Mutex.unlock rlock;
      not done_
    do
      Thread.delay 0.002
    done
  in
  (* closed-loop capacity: wall-clock a windowed burst.  Two ways to
     overstate it and report bogus shed rates at "1x": replaying the
     warm-up's targets (the timed burst would ride the seed cache), and
     full pipelining (the dispatcher would see max_batch-sized waves,
     measuring the large-batch service rate that paced single arrivals
     never reach).  Fresh targets and a small constant window of
     outstanding requests approximate the wave sizes open-loop traffic
     actually produces *)
  let capacity_rps =
    let warm = mk_targets n in
    (* warm: caches, workspaces, the dispatcher *)
    Array.iter (fun t -> ignore (send_solve t)) warm;
    await !next_id;
    let timed = mk_targets n in
    let window = 8 in
    let base =
      Mutex.lock rlock;
      let b = !replied in
      Mutex.unlock rlock;
      b
    in
    let t0 = Unix.gettimeofday () in
    let sent = ref 0 in
    while !sent < n do
      let done_ =
        Mutex.lock rlock;
        let d = !replied - base in
        Mutex.unlock rlock;
        d
      in
      if !sent - done_ < window then begin
        ignore (send_solve timed.(!sent));
        incr sent
      end
      else Thread.delay 0.0005
    done;
    await !next_id;
    float_of_int n /. (Unix.gettimeofday () -. t0)
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "%d one-shot solves per mode at %d DOF over unix:%s; queue %d, \
            pool %d; offered load relative to closed-loop capacity (%.0f \
            req/s)"
           n dof path queue_capacity pool_size capacity_rps)
      [ ("offered", Table.Right); ("offered req/s", Table.Right);
        ("achieved req/s", Table.Right); ("sojourn p50 ms", Table.Right);
        ("sojourn p95 ms", Table.Right); ("sojourn p99 ms", Table.Right);
        ("shed", Table.Right) ]
  in
  let rows = ref [] in
  List.iter
    (fun mult ->
      let rate = mult *. capacity_rps in
      let targets = mk_targets n in
      let arrivals =
        let arr_rng = Dadu_util.Rng.create (1000 + int_of_float mult) in
        let t = ref 0. in
        Array.init n (fun _ ->
            t := !t -. (log (1. -. Dadu_util.Rng.float arr_rng 1.) /. rate);
            !t)
      in
      let base = !next_id in
      let sent_t = Array.make n 0. in
      let t0 = Unix.gettimeofday () in
      Array.iteri
        (fun i target ->
          let now = Unix.gettimeofday () -. t0 in
          if arrivals.(i) > now then Unix.sleepf (arrivals.(i) -. now);
          sent_t.(i) <- Unix.gettimeofday ();
          ignore (send_solve target))
        targets;
      await !next_id;
      let t_last = Array.fold_left Float.max 0. (Array.sub reply_t base n) in
      let achieved = float_of_int n /. (t_last -. (t0 +. arrivals.(0))) in
      let shed = ref 0 in
      let sojourns = ref [] in
      for i = 0 to n - 1 do
        if reply_shed.(base + i) then incr shed
        else sojourns := (reply_t.(base + i) -. sent_t.(i)) :: !sojourns
      done;
      let sj = Array.of_list !sojourns in
      Array.sort compare sj;
      let pct p =
        if Array.length sj = 0 then 0.
        else sj.(int_of_float (Float.round (p *. float_of_int (Array.length sj - 1))))
      in
      let p50 = pct 0.5 and p95 = pct 0.95 and p99 = pct 0.99 in
      let shed_rate = float_of_int !shed /. float_of_int n in
      Table.add_row table
        [ Printf.sprintf "%.0fx" mult; Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.0f" achieved; Printf.sprintf "%.1f" (1e3 *. p50);
          Printf.sprintf "%.1f" (1e3 *. p95); Printf.sprintf "%.1f" (1e3 *. p99);
          Printf.sprintf "%.1f%%" (100. *. shed_rate) ];
      rows :=
        [ Printf.sprintf "%.0f" mult; Printf.sprintf "%.1f" rate;
          Printf.sprintf "%.1f" achieved; Printf.sprintf "%.5f" p50;
          Printf.sprintf "%.5f" p95; Printf.sprintf "%.5f" p99;
          Printf.sprintf "%.4f" shed_rate ]
        :: !rows)
    [ 1.; 4.; 16. ];
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  Thread.join rd;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Table.print table;
  write_csv "serve_live.csv"
    ~header:
      [ "offered_x"; "offered_rps"; "achieved_rps"; "sojourn_p50_s";
        "sojourn_p95_s"; "sojourn_p99_s"; "shed_rate" ]
    (List.rev !rows);
  Printf.printf
    "\n(sojourn = scheduled arrival to reply frame, through framing, the\n\
    \ admission queue and the dispatcher; shed = typed overloaded replies\n\
    \ from the %d-deep bounded queue)\n"
    queue_capacity

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
  let pool = Dadu_util.Domain_pool.create (Dadu_util.Domain_pool.recommended_size ()) in
  let tests =
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
      Test.make ~name:"quick-ik64-25iter-100dof-seq"
        (Staged.stage (fun () ->
             ignore (Dadu_core.Quick_ik.solve ~speculations:64 ~config:short problem100)));
      Test.make ~name:"quick-ik64-25iter-100dof-par"
        (Staged.stage (fun () ->
             ignore
               (Dadu_core.Quick_ik.solve ~speculations:64
                  ~mode:(Dadu_core.Quick_ik.Parallel pool) ~config:short problem100)));
      Test.make ~name:"pinv-solve-12dof"
        (Staged.stage (fun () -> ignore (Dadu_core.Pinv_svd.solve problem12)));
    ]
  in
  (tests, fun () -> Dadu_util.Domain_pool.shutdown pool)

let run_micro () =
  let open Bechamel in
  heading "Bechamel micro-benchmarks (actual OCaml kernels on this host)";
  let tests, cleanup = micro_tests () in
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
  Table.print table;
  cleanup ()

(* ---- steady-state Quick-IK kernel benchmark (JSON, regression-gated) ----

   Unlike the Bechamel micro section (whole solves, allocating entry path),
   this measures the steady-state inner loop the zero-allocation workspace
   work targets: one shared workspace, an unreachable target so the solver
   runs exactly [max_iterations], and per-iteration cost derived from the
   difference of two run lengths so per-solve constants cancel. *)

module Json = Dadu_util.Json

let bench_json_path = "BENCH_quickik.json"

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
  let samples = 31 and iters = 40 in
  let ns = Array.make samples 0. in
  for s = 0 to samples - 1 do
    let t0 = Unix.gettimeofday () in
    solve iters;
    ns.(s) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  done;
  Array.sort compare ns;
  let pct p =
    ns.(int_of_float (Float.round (p *. float_of_int (samples - 1))))
  in
  let mean = Array.fold_left ( +. ) 0. ns /. float_of_int samples in
  (mean, pct 0.5, pct 0.95, words_per_iter)

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
  let samples = 31 and reps = 500 in
  let ns = Array.make samples 0. in
  for s = 0 to samples - 1 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      sweep ()
    done;
    ns.(s) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps
  done;
  Array.sort compare ns;
  let pct p =
    ns.(int_of_float (Float.round (p *. float_of_int (samples - 1))))
  in
  let mean = Array.fold_left ( +. ) 0. ns /. float_of_int samples in
  (mean, pct 0.5, pct 0.95, words_per_sweep)

(* Steady-state cost of one request through the serving path (scheduler +
   cache + fallback chain + metrics), serial, warm cache: the number
   bench_diff gates so scheduler/tracing overhead cannot creep into the
   per-request allocation budget unnoticed. *)
let serve_steady_state ~dof =
  let module Svc = Dadu_service.Service in
  let problems = serve_workload ~dof ~fresh_count:32 in
  let n = Array.length problems in
  let service = Svc.create () in
  (* warm: seed cache populated, per-domain workspaces built *)
  ignore (Svc.solve_batch service problems);
  ignore (Svc.solve_batch service problems);
  let batch () = ignore (Svc.solve_batch service problems) in
  let w0 = Gc.minor_words () in
  for _ = 1 to 5 do
    batch ()
  done;
  let w1 = Gc.minor_words () in
  let words_per_request = (w1 -. w0) /. float_of_int (5 * n) in
  let samples = 31 in
  let ns = Array.make samples 0. in
  for s = 0 to samples - 1 do
    let t0 = Unix.gettimeofday () in
    batch ();
    ns.(s) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
  done;
  Array.sort compare ns;
  let pct p =
    ns.(int_of_float (Float.round (p *. float_of_int (samples - 1))))
  in
  let mean = Array.fold_left ( +. ) 0. ns /. float_of_int samples in
  (mean, pct 0.5, pct 0.95, words_per_request)

(* Steady-state cost of one lockstep lane-iteration: the same
   unreachable-target bracket as [quickik_steady_state], but the
   iterations run through [Megabatch.solve_all] over a full lane bank.
   Two pre-warmed lane banks with different iteration caps make the
   per-call and per-lane constants cancel, leaving the pure per
   lane-iteration cost — which must stay allocation-free, like the
   serial path it is bit-identical to. *)
let megabatch_steady_state ~dof =
  let open Dadu_kinematics in
  let chain = Robots.eval_chain ~dof in
  let lanes = 16 in
  let target = Dadu_linalg.Vec3.make 1e6 1e6 1e6 in
  let theta0 = Array.make dof 0.1 in
  let problems =
    Array.make lanes (Dadu_core.Ik.problem ~chain ~target ~theta0)
  in
  let mk iters =
    Dadu_core.Megabatch.create ~capacity:lanes ~speculations:64
      ~config:
        { Dadu_core.Ik.default_config with max_iterations = iters; accuracy = 1e-9 }
      ()
  in
  let solve mb = ignore (Dadu_core.Megabatch.solve_all mb problems) in
  let mb50 = mk 50 and mb150 = mk 150 in
  (* warm: planes sized, per-lane workspaces and candidate pools built *)
  solve mb50;
  solve mb150;
  let w0 = Gc.minor_words () in
  solve mb50;
  let w1 = Gc.minor_words () in
  solve mb150;
  let w2 = Gc.minor_words () in
  let words_per_iter =
    ((w2 -. w1) -. (w1 -. w0)) /. float_of_int (100 * lanes)
  in
  let mb40 = mk 40 in
  solve mb40;
  let samples = 31 in
  let ns = Array.make samples 0. in
  for s = 0 to samples - 1 do
    let t0 = Unix.gettimeofday () in
    solve mb40;
    ns.(s) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (40 * lanes)
  done;
  Array.sort compare ns;
  let pct p =
    ns.(int_of_float (Float.round (p *. float_of_int (samples - 1))))
  in
  let mean = Array.fold_left ( +. ) 0. ns /. float_of_int samples in
  (mean, pct 0.5, pct 0.95, words_per_iter)

(* Cold-start vs library-seeded Quick-IK over a fixed reachable workload:
   the informational fields pin the acceptance criterion (seeded mean
   iterations to the paper accuracy strictly below cold), while the gated
   metrics price the seed selection itself — one perturbation-free
   4-candidate selection (theta0 / cache / library NN / zero) as a
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
  let waves ~cache_seed =
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
            session_seed = None;
            cache_seed;
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
    let waves = waves ~cache_seed:None in
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
  (* selection cost: warm cache seed present, so no Perturbed slot (whose
     fresh Rng would allocate) *)
  let timed = waves ~cache_seed:(Some (Array.make dof 0.1)) in
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
  let samples = 31 in
  let ns = Array.make samples 0. in
  for s = 0 to samples - 1 do
    let t0 = Unix.gettimeofday () in
    sweep ();
    ns.(s) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps
  done;
  Array.sort compare ns;
  let pct p =
    ns.(int_of_float (Float.round (p *. float_of_int (samples - 1))))
  in
  let mean = Array.fold_left ( +. ) 0. ns /. float_of_int samples in
  (mean, pct 0.5, pct 0.95, words_per_iter, iters_cold, iters_seeded)

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
  let cache_seed = Some (Array.make dof 0.1) in
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
          session_seed = None;
          cache_seed;
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
  let samples = 31 in
  let ns = Array.make samples 0. in
  for s = 0 to samples - 1 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      wave ()
    done;
    ns.(s) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps /. cands
  done;
  Array.sort compare ns;
  let pct p =
    ns.(int_of_float (Float.round (p *. float_of_int (samples - 1))))
  in
  let mean = Array.fold_left ( +. ) 0. ns /. float_of_int samples in
  (mean, pct 0.5, pct 0.95, words_per_cand)

(* Temporal warm-starting along a Cartesian trajectory: the session
   workload at kernel level.  Waypoint targets are generated by FK along
   a joint-space sine sweep around a well-conditioned base posture
   (guaranteed reachable at every DOF, and cyclic so the path never
   drifts toward a workspace boundary the way a straight joint-space
   line does), with amplitude scaled so consecutive targets sit ~1.5 cm
   apart.  Each Quick-IK solve starts from the previous waypoint's
   solution — the seed chain a trajectory session maintains.
   [iters_per_waypoint] (warm mean) is a gated, machine-independent
   metric: the temporal-coherence win the session subsystem exists for
   must not silently erode. *)
let session_steady_state ~dof =
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
  let waypoints = 40 in
  let targets = Array.init waypoints (fun k -> Fk.position ~scratch chain (at k)) in
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
  let samples = 31 in
  let ns = Array.make samples 0. in
  for s = 0 to samples - 1 do
    let t0 = Unix.gettimeofday () in
    trajectory false;
    ns.(s) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int waypoints
  done;
  Array.sort compare ns;
  let pct p =
    ns.(int_of_float (Float.round (p *. float_of_int (samples - 1))))
  in
  let mean = Array.fold_left ( +. ) 0. ns /. float_of_int samples in
  (mean, pct 0.5, pct 0.95, words_per_waypoint, !iters_cold, iters_per_waypoint)

let run_micro_json () =
  heading "Quick-IK steady-state kernel benchmark (JSON)";
  let table =
    Table.create
      ~title:
        "steady state: quickik = solver iteration (64 spec, Sequential), \
         speckernel = one raw 64-candidate sweep, megabatch = one lockstep \
         lane-iteration over a 16-lane bank, serve-request = one warm-cache \
         request through the serving path, prepare = one candidate \
         scoring through the wave-fused choose_wave (16 requests x 5 \
         candidates, sequential), session = one temporally warm-started \
         waypoint along a 40-point ~1.5 cm cyclic trajectory"
      [ ("benchmark", Table.Left); ("ns/iter", Table.Right);
        ("p50 ns", Table.Right); ("p95 ns", Table.Right);
        ("words/iter", Table.Right) ]
  in
  let entry name dof (mean, p50, p95, words) =
    Table.add_row table
      [ name; Printf.sprintf "%.0f" mean; Printf.sprintf "%.0f" p50;
        Printf.sprintf "%.0f" p95; Printf.sprintf "%.2f" words ];
    (* Json.num, not Num: one poisoned statistic (a NaN mean from a
       zero-iteration run) must cost a null field, not the whole export *)
    Json.Obj
      [ ("name", Json.Str name);
        ("dof", Json.num (float_of_int dof));
        ("ns_per_iter", Json.num mean);
        ("p50_ns", Json.num p50);
        ("p95_ns", Json.num p95);
        ("words_per_iter", Json.num words) ]
  in
  let dofs = [ 12; 30; 100 ] in
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
        (fun dof ->
          entry (Printf.sprintf "megabatch-dof%d" dof) dof
            (megabatch_steady_state ~dof))
        dofs
    @ [ entry "serve-request-dof12" 12 (serve_steady_state ~dof:12) ]
    @ List.map
        (fun dof ->
          let mean, p50, p95, words, cold, seeded = seeded_steady_state ~dof in
          let json = entry (Printf.sprintf "seeded-dof%d" dof) dof (mean, p50, p95, words) in
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
          let mean, p50, p95, words, cold, per_wp = session_steady_state ~dof in
          let json =
            entry (Printf.sprintf "session-dof%d" dof) dof (mean, p50, p95, words)
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
  in
  Table.print table;
  Json.write_file bench_json_path
    (Json.Obj [ ("schema", Json.Num 1.); ("benchmarks", Json.List benchmarks) ]);
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
    ("serve", run_serve);
    ("serve-parallel", run_serve_parallel);
    ("serve-live", run_serve_live);
    ("micro", run_micro);
  ]

let () =
  (* `micro --json` switches the micro section to the steady-state kernel
     benchmark and writes BENCH_quickik.json for tools/bench_diff *)
  let argv = List.tl (Array.to_list Sys.argv) in
  let json_mode = List.mem "--json" argv in
  let open_loop = List.mem "--open-loop" argv in
  let args =
    List.filter (fun a -> a <> "--json" && a <> "--open-loop") argv
  in
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
  (* `serve-parallel --open-loop` swaps the closed-loop scaling table for
     the Poisson arrival generator (per-request vs lockstep) *)
  let sections =
    if open_loop then
      List.map
        (fun (name, f) ->
          if name = "serve-parallel" then (name, run_serve_open_loop)
          else (name, f))
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
