(* dadu — command-line interface to the Dadu IK suite.

   Subcommands:
     solve   solve one IK problem with a chosen method
     sweep   run a method across the paper's DOF sweep
     accel   run the IKAcc accelerator model on one problem
     serve-batch  run the batched serving layer on a problem file
     robots  list the built-in robot factories *)

open Cmdliner
open Dadu_kinematics
open Dadu_core
module Vec3 = Dadu_linalg.Vec3

(* ---- shared argument parsing ---- *)

let robot_of_string s =
  let fail () =
    Error
      (`Msg
        (Printf.sprintf
           "unknown robot %S (expected arm6 | arm7 | scara | snake:<dof> | \
            eval:<dof> | planar:<dof>)"
           s))
  in
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "arm6" ] -> Ok (Robots.arm_6dof ())
  | [ "arm7" ] -> Ok (Robots.arm_7dof ())
  | [ "scara" ] -> Ok (Robots.scara ())
  | [ kind; dof ] ->
    (match (kind, int_of_string_opt dof) with
    | _, None -> fail ()
    | _, Some d when d <= 0 -> fail ()
    | "snake", Some d -> Ok (Robots.snake ~dof:d)
    | "eval", Some d -> Ok (Robots.eval_chain ~dof:d)
    | "planar", Some d -> Ok (Robots.planar ~dof:d ~reach:(float_of_int d) ())
    | _, Some _ -> fail ())
  | [ _ ] | [] | _ :: _ :: _ -> fail ()

let robot_conv =
  Arg.conv
    ( robot_of_string,
      fun ppf chain -> Format.fprintf ppf "%s" (Chain.name chain) )

let robot_builtin =
  let doc =
    "Robot to solve for: arm6, arm7, scara, snake:<dof>, eval:<dof> (the \
     paper's evaluation chain), or planar:<dof>."
  in
  Arg.(value & opt robot_conv (Robots.arm_7dof ()) & info [ "r"; "robot" ] ~doc)

let robot_file =
  let doc =
    "Load the robot from a description file instead (see \
     Dadu_kinematics.Chain_format for the format); overrides --robot."
  in
  Arg.(value & opt (some file) None & info [ "f"; "robot-file" ] ~doc)

(* combined robot term: file wins over builtin *)
let robot =
  let combine builtin file =
    match file with
    | None -> Ok builtin
    | Some path ->
      (match Chain_format.parse_file path with
      | Ok chain -> Ok chain
      | Error msg -> Error (`Msg (Printf.sprintf "%s: %s" path msg)))
  in
  Term.(term_result (const combine $ robot_builtin $ robot_file))

module Fallback = Dadu_service.Fallback

let method_arg =
  let doc =
    Printf.sprintf "IK method: %s."
      (String.concat ", " (List.map fst Fallback.all))
  in
  Arg.(
    value
    & opt (enum Fallback.all) Fallback.Quick_ik
    & info [ "m"; "method" ] ~doc)

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed (targets and starts).")

let speculations =
  Arg.(
    value & opt int 64
    & info [ "s"; "speculations" ] ~doc:"Quick-IK speculation count (paper: 64).")

let max_iters =
  Arg.(
    value & opt int 10_000
    & info [ "max-iters" ] ~doc:"Iteration cap (paper: 10000).")

let accuracy =
  Arg.(
    value & opt float 1e-2
    & info [ "accuracy" ] ~doc:"Position tolerance in meters (paper: 0.01).")

let vec3_conv =
  let parse s =
    match String.split_on_char ',' s |> List.map float_of_string_opt with
    | [ Some x; Some y; Some z ] -> Ok (Vec3.make x y z)
    | _ -> Error (`Msg (Printf.sprintf "expected x,y,z (got %S)" s))
  in
  Arg.conv (parse, fun ppf v -> Vec3.pp ppf v)

let target =
  let doc = "Target position x,y,z (default: a random reachable position)." in
  Arg.(value & opt (some vec3_conv) None & info [ "t"; "target" ] ~doc)

let ik_config ~max_iters ~accuracy =
  { Ik.default_config with max_iterations = max_iters; accuracy }

(* Out-of-range numbers (a zero speculation or SSU count) reach the
   solvers and the accelerator model, which reject them with
   [Invalid_argument]: like a bad problem file, that is one diagnostic
   line and exit 3. *)
let bad_input msg =
  Format.eprintf "dadu: %s@." msg;
  3

let problem_for ~chain ~seed ~target =
  let rng = Dadu_util.Rng.create seed in
  let target =
    match target with Some t -> t | None -> Target.reachable rng chain
  in
  Ik.problem ~chain ~target ~theta0:(Target.random_config rng chain)

(* ---- solve ---- *)

let run_solve chain m speculations seed target max_iters accuracy verbose svg =
  let config = ik_config ~max_iters ~accuracy in
  let problem = problem_for ~chain ~seed ~target in
  let t0 = Sys.time () in
  match Fallback.solver ~speculations m ~config problem with
  | exception Invalid_argument msg -> bad_input msg
  | r ->
  let elapsed = Sys.time () -. t0 in
  Format.printf "Robot : %s (%d DOF)@." (Chain.name chain) (Chain.dof chain);
  Format.printf "Target: %a@." Vec3.pp problem.Ik.target;
  Format.printf "Result: %a (host %.1f ms)@." Ik.pp_result r (elapsed *. 1e3);
  let reached = Fk.position chain r.Ik.theta in
  Format.printf "FK    : %a (%.2f mm off)@." Vec3.pp reached
    (1e3 *. Vec3.dist reached problem.Ik.target);
  if verbose then
    Format.printf "Angles: %a@." Dadu_linalg.Vec.pp r.Ik.theta;
  (match svg with
  | None -> ()
  | Some path ->
    Viz.write ~path ~targets:[ problem.Ik.target ] chain
      [
        Viz.posture ~label:"start" ~color:"#999999" problem.Ik.theta0;
        Viz.posture ~label:"solution" ~color:"#1f77b4" r.Ik.theta;
      ];
    Format.printf "SVG   : %s@." path);
  match r.Ik.status with
  | Ik.Converged -> 0
  | Ik.Max_iterations | Ik.Stalled | Ik.Diverged -> 1

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the joint-angle solution.")

let svg_out =
  let doc = "Write an SVG of the start and solution postures to this file." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~doc)

let solve_cmd =
  let doc = "Solve one inverse-kinematics problem." in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      const run_solve $ robot $ method_arg $ speculations $ seed $ target
      $ max_iters $ accuracy $ verbose $ svg_out)

(* ---- sweep ---- *)

let run_sweep m speculations seed targets max_iters =
  if targets < 1 then bad_input "--targets must be at least 1"
  else
  let scale =
    { Dadu_experiments.Runner.targets; max_iterations = max_iters; speculations; seed }
  in
  let name = Fallback.name m in
  let table =
    Dadu_util.Table.create
      ~title:(Printf.sprintf "%s across the paper's DOF sweep" name)
      [
        ("DOF", Dadu_util.Table.Right);
        ("mean iters", Dadu_util.Table.Right);
        ("median", Dadu_util.Table.Right);
        ("converged", Dadu_util.Table.Right);
        ("host time", Dadu_util.Table.Right);
      ]
  in
  let row dof =
    let chain = Robots.eval_chain ~dof in
    let solver config p = Fallback.solver ~speculations m ~config p in
    let a = Dadu_experiments.Workload.run scale ~name ~chain ~solver in
    Dadu_util.Table.add_row table
      [
        string_of_int dof;
        Printf.sprintf "%.1f" a.Dadu_experiments.Workload.mean_iterations;
        Printf.sprintf "%.0f" a.Dadu_experiments.Workload.median_iterations;
        Printf.sprintf "%d/%d" a.Dadu_experiments.Workload.converged targets;
        Printf.sprintf "%.1f s" a.Dadu_experiments.Workload.wall_clock_s;
      ]
  in
  match List.iter row Robots.eval_dofs with
  | exception Invalid_argument msg -> bad_input msg
  | () ->
    Dadu_util.Table.print table;
    0

let sweep_targets =
  Arg.(value & opt int 25 & info [ "n"; "targets" ] ~doc:"Targets per DOF.")

let sweep_cmd =
  let doc = "Run one method across the paper's 12-100 DOF evaluation sweep." in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      const run_sweep $ method_arg $ speculations $ seed $ sweep_targets $ max_iters)

(* ---- accel ---- *)

let run_accel chain speculations ssus seed target max_iters accuracy =
  let config =
    Dadu_accel.Config.with_ssus ssus Dadu_accel.Config.default
  in
  let ik_config = ik_config ~max_iters ~accuracy in
  let problem = problem_for ~chain ~seed ~target in
  match Dadu_accel.Ikacc.solve ~config ~ik_config ~speculations problem with
  | exception Invalid_argument msg -> bad_input msg
  | report ->
    Format.printf "Robot : %s (%d DOF)@." (Chain.name chain) (Chain.dof chain);
    Format.printf "%a@." Dadu_accel.Ikacc.pp_report report;
    (match report.Dadu_accel.Ikacc.result.Ik.status with
    | Ik.Converged -> 0
    | Ik.Max_iterations | Ik.Stalled | Ik.Diverged -> 1)

let ssus =
  Arg.(value & opt int 32 & info [ "ssus" ] ~doc:"Speculative Search Units (paper: 32).")

let accel_cmd =
  let doc = "Run the IKAcc accelerator model (cycles, time, energy) on one problem." in
  Cmd.v
    (Cmd.info "accel" ~doc)
    Term.(
      const run_accel $ robot $ speculations $ ssus $ seed $ target $ max_iters
      $ accuracy)

(* ---- batch ---- *)

let run_batch chain m speculations seed count max_iters accuracy =
  let config = ik_config ~max_iters ~accuracy in
  let rng = Dadu_util.Rng.create seed in
  let problems = Array.init count (fun _ -> Ik.random_problem rng chain) in
  let solver p = Fallback.solver ~speculations m ~config p in
  let pool = Dadu_util.Domain_pool.create (Dadu_util.Domain_pool.recommended_size ()) in
  match
    Fun.protect
      ~finally:(fun () -> Dadu_util.Domain_pool.shutdown pool)
      (fun () -> Batch.solve ~pool ~solver problems)
  with
  | exception Invalid_argument msg -> bad_input msg
  | summary ->
  Format.printf "Robot    : %s (%d DOF)@." (Chain.name chain) (Chain.dof chain);
  Format.printf "Solved   : %d/%d targets@." summary.Batch.converged count;
  Format.printf "Iterations: %.1f mean@." summary.Batch.mean_iterations;
  Format.printf "Error    : %.3g m mean@." summary.Batch.mean_error;
  Format.printf "Wall time: %.2f s (%d domains)@." summary.Batch.wall_clock_s
    (Dadu_util.Domain_pool.recommended_size ());
  if summary.Batch.converged = count then 0 else 1

let batch_count =
  Arg.(value & opt int 100 & info [ "n"; "count" ] ~doc:"Number of random targets.")

let batch_cmd =
  let doc = "Solve a batch of random targets (domain-parallel)." in
  Cmd.v
    (Cmd.info "batch" ~doc)
    Term.(
      const run_batch $ robot $ method_arg $ speculations $ seed $ batch_count
      $ max_iters $ accuracy)

(* ---- serve-batch ---- *)

module Svc = Dadu_service.Service

let solvers_conv =
  Arg.conv
    ( (fun s ->
        match Fallback.chain_of_string s with
        | Ok chain -> Ok chain
        | Error msg -> Error (`Msg msg)),
      fun ppf chain -> Format.pp_print_string ppf (Fallback.chain_to_string chain) )

let solvers_arg =
  let doc =
    "Fallback chain: comma-separated solver names tried in order until one \
     converges (e.g. quick-ik,dls,sdls)."
  in
  Arg.(
    value
    & opt solvers_conv Svc.default_config.Svc.solvers
    & info [ "solvers" ] ~doc)

let problems_file =
  let doc =
    "Problem file: robot/target/random declarations (see \
     Dadu_service.Problem_file for the format)."
  in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let jobs =
  let doc = "Domain-pool size (1 = no pool)." in
  Arg.(
    value & opt int (Dadu_util.Domain_pool.recommended_size ()) & info [ "j"; "jobs" ] ~doc)

let chunk =
  let doc = "Scheduler wave size (cache warm-starts cross wave boundaries)." in
  Arg.(value & opt int Svc.default_config.Svc.chunk & info [ "chunk" ] ~doc)

let cache_cell =
  let doc = "Warm-start cache grid cell side in meters." in
  Arg.(value & opt float Svc.default_config.Svc.cache_cell_m & info [ "cache-cell" ] ~doc)

let cache_capacity =
  let doc = "Warm-start cache capacity in cells (LRU beyond this)." in
  Arg.(
    value & opt int Svc.default_config.Svc.cache_capacity & info [ "cache-capacity" ] ~doc)

let no_warm_start =
  Arg.(value & flag & info [ "no-warm-start" ] ~doc:"Disable the warm-start seed cache.")

let time_budget =
  let doc =
    "Per-problem wall-clock budget in seconds, checked between fallback \
     attempts (makes results timing-dependent)."
  in
  Arg.(value & opt (some float) None & info [ "time-budget" ] ~doc)

let batch_budget =
  let doc =
    "Batch-level time budget in seconds: once the batch has run this long, \
     remaining requests short-circuit to the cheapest solver tier and are \
     tagged deadline-exceeded."
  in
  Arg.(value & opt (some float) None & info [ "budget" ] ~doc)

let default_deadline =
  let doc =
    "Default per-request deadline in seconds from the batch's start, for \
     requests without an explicit deadline= in the problem file."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~doc)

let trace_out =
  let doc =
    "Write per-request spans (prepare, fallback-tier, solve, commit, retry) \
     as JSON lines to this file."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let retries =
  let doc =
    "Perturbed-seed retries: after the chain is exhausted without \
     convergence, re-enter it up to N times from a jittered initial \
     configuration (deterministically seeded per request)."
  in
  Arg.(value & opt int Svc.default_config.Svc.retries & info [ "retries" ] ~doc)

let retry_scale =
  let doc = "Std-dev in radians of the retry jitter applied to theta0." in
  Arg.(
    value & opt float Svc.default_config.Svc.retry_scale
    & info [ "retry-scale" ] ~doc)

let breaker_threshold =
  let doc =
    "Enable per-solver circuit breakers: a tier is skipped after N \
     consecutive malfunctions (divergence or crash) until its cooldown \
     elapses."
  in
  Arg.(value & opt (some int) None & info [ "breaker" ] ~docv:"N" ~doc)

let breaker_cooldown =
  let doc = "Circuit-breaker cooldown, in committed requests." in
  Arg.(
    value
    & opt int Dadu_service.Breaker.default_settings.Dadu_service.Breaker.cooldown
    & info [ "breaker-cooldown" ] ~doc)

let fault_plan =
  let doc =
    "Chaos fault plan, e.g. 'solver-nan,prob=0.1;solver-raise,every=50'. \
     Sites: solver-raise, solver-nan, solver-lie; triggers: iter=, from=, \
     every=, first=, prob= (default always)."
  in
  Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"PLAN" ~doc)

let fault_seed =
  let doc = "Seed for the fault plan's probabilistic triggers." in
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~doc)

let guard_flag =
  let doc =
    "Enable the divergence guard: solver attempts abort with status \
     'diverged' on non-finite state or a sustained error explosion."
  in
  Arg.(value & flag & info [ "guard" ] ~doc)

let seed_library_arg =
  let doc =
    "Posture library file (written by 'dadu posture-build') consulted for \
     nearest-neighbour seed candidates; only chains matching the library's \
     fingerprint are seeded from it."
  in
  Arg.(value & opt (some string) None & info [ "seed-library" ] ~docv:"FILE" ~doc)

let seed_candidates_arg =
  let doc =
    "Speculative seed starts scored per request (argmin of first-iteration \
     FK error wins).  1 (the default) keeps the classic warm-start path."
  in
  Arg.(
    value
    & opt int Svc.default_config.Svc.seed_candidates
    & info [ "seed-candidates" ] ~docv:"S" ~doc)

(* The --seed-library / --seed-candidates pair of serve-batch and serve;
   [Error msg] is the finished diagnostic. *)
let load_seed_library ~seed_candidates seed_library =
  match seed_library with
  | _ when seed_candidates < 1 -> Error "--seed-candidates must be at least 1"
  | None -> Ok None
  | Some path ->
    (match Dadu_service.Posture_library.load path with
    | Ok lib -> Ok (Some lib)
    (* the Sys_error text already names the path *)
    | Error (Dadu_service.Posture_library.Io msg) -> Error msg
    | Error e ->
      Error
        (Format.asprintf "%s: %a" path
           Dadu_service.Posture_library.pp_load_error e))

let replies_out =
  let doc =
    "Write one deterministic JSON line per reply (index, status, solver, \
     iterations, error, theta, flags; no timing) to this file — byte-\
     comparable across runs and pool sizes."
  in
  Arg.(value & opt (some string) None & info [ "replies" ] ~docv:"FILE" ~doc)

(* One reply, one JSON line, nothing clock-dependent: %.17g round-trips
   doubles exactly, so two runs producing bit-identical results produce
   byte-identical files.  Written as the server writes its replies, with
   Reply_text's Buffer adds and exact "%.17g". *)
let write_replies path replies =
  let module T = Dadu_service.Reply_text in
  let b = Buffer.create 4096 in
  let digits = Bytes.create T.scratch_bytes in
  let text s = Buffer.add_string b s in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Array.iteri
    (fun i reply ->
      Buffer.clear b;
      text "{\"index\":";
      T.add_int b i;
      (match reply with
      | Svc.Rejected invalid ->
        text ",\"reply\":\"rejected\",\"reason\":";
        T.add_quoted b (Format.asprintf "%a" Ik.pp_invalid invalid)
      | Svc.Faulted msg ->
        text ",\"reply\":\"faulted\",\"reason\":";
        T.add_quoted b msg
      | Svc.Solved
          {
            result;
            solver;
            fallbacks;
            cache_hit;
            deadline_exceeded;
            retries;
            _;
          } ->
        text ",\"reply\":\"solved\",\"status\":";
        T.add_quoted b (Ik.string_of_status result.Ik.status);
        text ",\"solver\":";
        T.add_quoted b (Fallback.name solver);
        text ",\"iterations\":";
        T.add_int b result.Ik.iterations;
        text ",\"error\":";
        T.add_float b digits result.Ik.error;
        text ",\"fallbacks\":";
        T.add_int b fallbacks;
        text ",\"retries\":";
        T.add_int b retries;
        text ",\"cache_hit\":";
        T.add_bool b cache_hit;
        text ",\"deadline_exceeded\":";
        T.add_bool b deadline_exceeded;
        text ",\"theta\":[";
        T.add_floats b digits result.Ik.theta;
        text "]");
      text "}\n";
      Buffer.output_buffer oc b)
    replies

(* Output files are written once the work they record has run: an
   unwritable path prints [dadu: cannot write <what>: <reason>] and the
   caller exits 3, instead of an uncaught Sys_error. *)
let written what write =
  match write () with
  | () -> true
  | exception Sys_error msg ->
    Format.eprintf "dadu: cannot write %s: %s@." what msg;
    false

let run_serve_batch file solvers speculations max_iters accuracy jobs chunk
    cache_cell cache_capacity no_warm_start time_budget batch_budget
    default_deadline trace_out retries retry_scale breaker_threshold
    breaker_cooldown fault_plan fault_seed guard_flag seed_library
    seed_candidates replies_out =
  match Dadu_service.Problem_file.parse_requests_file file with
  | Error msg ->
    Format.eprintf "dadu: %s: %s@." file msg;
    3
  | Ok entries ->
    let requests =
      Array.map
        (fun (e : Dadu_service.Problem_file.entry) ->
          {
            Svc.problem = e.Dadu_service.Problem_file.problem;
            deadline_s =
              (match e.Dadu_service.Problem_file.deadline_s with
              | Some _ as d -> d
              | None -> default_deadline);
            session = None;
            ordinal = None;
          })
        entries
    in
    let fault =
      match fault_plan with
      | None -> Ok Dadu_util.Fault.disabled
      | Some s ->
        Result.map
          (Dadu_util.Fault.arm ~seed:fault_seed)
          (Dadu_util.Fault.parse_plan s)
    in
    let library = load_seed_library ~seed_candidates seed_library in
    (match (fault, library) with
    | Error msg, _ ->
      Format.eprintf "dadu: bad --fault-plan: %s@." msg;
      3
    | _, Error msg ->
      Format.eprintf "dadu: %s@." msg;
      3
    | Ok fault, Ok seed_library ->
    let config =
      {
        Svc.solvers;
        speculations;
        accuracy;
        max_iterations = max_iters;
        time_budget_s = time_budget;
        warm_start = not no_warm_start;
        cache_cell_m = cache_cell;
        cache_capacity;
        chunk;
        guard = (if guard_flag then Some Ik.default_guard else None);
        fault;
        breaker =
          Option.map
            (fun threshold ->
              {
                Dadu_service.Breaker.threshold;
                cooldown = breaker_cooldown;
              })
            breaker_threshold;
        retries;
        retry_scale;
        seed_library;
        seed_candidates;
      }
    in
    let trace = Option.map (fun _ -> Dadu_util.Trace.create ()) trace_out in
    let pool =
      if jobs > 1 then Some (Dadu_util.Domain_pool.create jobs) else None
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Dadu_util.Domain_pool.shutdown pool)
      (fun () ->
        let service = Svc.create ?pool ~config () in
        let t0 = Unix.gettimeofday () in
        let replies =
          Svc.solve_requests ?budget_s:batch_budget ?trace service requests
        in
        let wall = Unix.gettimeofday () -. t0 in
        let n = Array.length requests in
        Format.printf "Problems : %d (%s)@." n file;
        Format.printf "Solvers  : %s@." (Fallback.chain_to_string solvers);
        Format.printf "Pool     : %d domain%s, chunk %d@." jobs
          (if jobs = 1 then "" else "s")
          chunk;
        Format.printf "Wall time: %.3f s (%.0f problems/s)@." wall
          (if wall > 0. then float_of_int n /. wall else 0.);
        print_string (Svc.render_metrics service);
        print_newline ();
        let replies_written =
          match replies_out with
          | None -> true
          | Some path -> written "replies" (fun () -> write_replies path replies)
        in
        let trace_written =
          match (trace_out, trace) with
          | Some path, Some tr ->
            let ok =
              written "trace" (fun () -> Dadu_util.Trace.write_jsonl tr path)
            in
            if ok then
              Format.printf "Trace    : %s (%d spans)@." path
                (Dadu_util.Trace.length tr);
            ok
          | _ -> true
        in
        let m = Svc.metrics service in
        if not (replies_written && trace_written) then 3
        else if
          m.Dadu_service.Metrics.failed = 0
          && m.Dadu_service.Metrics.rejected = 0
          && m.Dadu_service.Metrics.faulted = 0
        then 0
        else 1))

let serve_batch_cmd =
  let doc =
    "Serve a batch of IK problems from a file: scheduler, warm-start cache, \
     solver fallback chain, circuit breakers, perturbed-seed retries, \
     per-request deadlines, fault injection, tracing, metrics table."
  in
  Cmd.v
    (Cmd.info "serve-batch" ~doc)
    Term.(
      const run_serve_batch $ problems_file $ solvers_arg $ speculations
      $ max_iters $ accuracy $ jobs $ chunk $ cache_cell $ cache_capacity
      $ no_warm_start $ time_budget $ batch_budget $ default_deadline
      $ trace_out $ retries $ retry_scale $ breaker_threshold
      $ breaker_cooldown $ fault_plan $ fault_seed $ guard_flag
      $ seed_library_arg $ seed_candidates_arg $ replies_out)

(* ---- serve (persistent streaming server) ---- *)

module Server = Dadu_service.Server

let listen_conv =
  Arg.conv
    ( (fun s ->
        match Server.listen_of_string s with
        | Ok l -> Ok l
        | Error msg -> Error (`Msg msg)),
      fun ppf l ->
        Format.pp_print_string ppf
          (match l with
          | Server.Unix_sock p -> "unix:" ^ p
          | Server.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p) )

let listen_arg =
  let doc =
    "Listen address: unix:<path>, tcp:<host>:<port>, or a bare path (a \
     Unix socket)."
  in
  Arg.(
    required
    & opt (some listen_conv) None
    & info [ "listen" ] ~docv:"ADDR" ~doc)

let queue_arg =
  let doc =
    "Admission bound: solve/waypoint requests beyond this many queued jobs \
     are shed with a typed 'overloaded' reply (0 sheds everything)."
  in
  Arg.(
    value
    & opt int Server.default_config.Server.queue_capacity
    & info [ "queue" ] ~doc)

let max_batch_arg =
  let doc = "Most queued jobs dispatched as one service batch." in
  Arg.(
    value
    & opt int Server.default_config.Server.max_batch
    & info [ "max-batch" ] ~doc)

let journal_arg =
  let doc =
    "Append every session open/commit/close to this checksummed journal \
     before the reply is written, and replay its valid prefix on startup: \
     clients that re-open after a crash resume warm with byte-identical \
     replies."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let max_conns_arg =
  let doc =
    "Live-connection cap: excess connections get one typed 'busy' frame \
     with a retry_after_ms hint and are closed."
  in
  Arg.(
    value
    & opt int Server.default_config.Server.max_connections
    & info [ "max-conns" ] ~doc)

let idle_timeout_arg =
  let doc =
    "Drop a connection idle (no frame started) this many seconds; 0 waits \
     forever."
  in
  Arg.(value & opt float 0. & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)

let frame_timeout_arg =
  let doc =
    "Drop a connection whose started frame is still incomplete after this \
     many seconds (slow-loris defense); 0 waits forever."
  in
  Arg.(value & opt float 30. & info [ "frame-timeout" ] ~docv:"SECONDS" ~doc)

let retry_after_arg =
  let doc = "Back-off hint (ms) attached to busy refusals and shed replies." in
  Arg.(
    value
    & opt int Server.default_config.Server.retry_after_ms
    & info [ "retry-after" ] ~docv:"MS" ~doc)

let est_job_ms_arg =
  let doc =
    "Estimated per-job service time (ms) for deadline-aware shedding: a \
     queued job whose estimated wait already exceeds its deadline is shed \
     up-front with the retry_after hint; 0 disables."
  in
  Arg.(value & opt float 0. & info [ "est-job-ms" ] ~docv:"MS" ~doc)

let net_fault_plan_arg =
  let doc =
    "Wire-level chaos plan applied to this server's connections, e.g. \
     'net-cut,prob=0.05;net-stall,prob=0.1,arg=0.2'. Sites: net-cut, \
     net-stall, net-garble, net-short-frame; triggers as in --fault-plan."
  in
  Arg.(value & opt (some string) None & info [ "net-fault" ] ~docv:"PLAN" ~doc)

let net_fault_seed_arg =
  let doc = "Seed for the wire-fault plan's probabilistic triggers." in
  Arg.(value & opt int 0 & info [ "net-fault-seed" ] ~doc)

let run_serve listen queue max_batch journal max_conns idle_timeout
    frame_timeout retry_after est_job_ms net_fault_plan net_fault_seed solvers
    speculations max_iters accuracy jobs chunk cache_cell cache_capacity
    no_warm_start retries retry_scale guard_flag seed_library seed_candidates =
  let library = load_seed_library ~seed_candidates seed_library in
  let net_fault =
    match net_fault_plan with
    | None -> Ok Dadu_util.Fault.disabled
    | Some s ->
      Result.map
        (Dadu_util.Fault.arm ~seed:net_fault_seed)
        (Dadu_util.Fault.parse_plan s)
  in
  match (library, net_fault) with
  | Error msg, _ | _, Error msg ->
    Format.eprintf "dadu: %s@." msg;
    3
  | Ok seed_library, Ok net_fault ->
    let service_config =
      {
        Svc.solvers;
        speculations;
        accuracy;
        max_iterations = max_iters;
        time_budget_s = None;
        warm_start = not no_warm_start;
        cache_cell_m = cache_cell;
        cache_capacity;
        chunk;
        guard = (if guard_flag then Some Ik.default_guard else None);
        fault = Dadu_util.Fault.disabled;
        breaker = None;
        retries;
        retry_scale;
        seed_library;
        seed_candidates;
      }
    in
    let config =
      {
        Server.service = service_config;
        queue_capacity = queue;
        max_batch;
        max_connections = max_conns;
        idle_timeout_s = (if idle_timeout > 0. then Some idle_timeout else None);
        frame_timeout_s =
          (if frame_timeout > 0. then Some frame_timeout else None);
        retry_after_ms = retry_after;
        est_job_ms;
        net_fault;
        journal;
      }
    in
    let pool =
      if jobs > 1 then Some (Dadu_util.Domain_pool.create jobs) else None
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Dadu_util.Domain_pool.shutdown pool)
      (fun () ->
        match Server.create ?pool ~config () with
        | exception Invalid_argument msg ->
          Format.eprintf "dadu: %s@." msg;
          3
        | server ->
        (match Server.journal_recovery server with
        | Some defect ->
          Format.eprintf
            "dadu: journal %s: %a — replayed the valid prefix, tail truncated@."
            (Option.value ~default:"?" journal)
            Dadu_service.Journal.pp_load_error defect
        | None -> ());
        let handler = Sys.Signal_handle (fun _ -> Server.stop server) in
        (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
        Format.eprintf "dadu: serving on %a@."
          (fun ppf -> function
            | Server.Unix_sock p -> Format.fprintf ppf "unix:%s" p
            | Server.Tcp (h, p) -> Format.fprintf ppf "tcp:%s:%d" h p)
          listen;
        Server.run server ~listen;
        print_string (Server.render_tenants server);
        0)

let serve_cmd =
  let doc =
    "Persistent concurrent IK server: length-prefixed JSON frames over a \
     Unix or TCP socket, trajectory-tracking sessions with temporal \
     warm-starting, bounded-queue load shedding, per-tenant metrics, \
     graceful drain on SIGTERM."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ listen_arg $ queue_arg $ max_batch_arg $ journal_arg
      $ max_conns_arg $ idle_timeout_arg $ frame_timeout_arg $ retry_after_arg
      $ est_job_ms_arg $ net_fault_plan_arg $ net_fault_seed_arg $ solvers_arg
      $ speculations $ max_iters $ accuracy $ jobs $ chunk $ cache_cell
      $ cache_capacity $ no_warm_start $ retries $ retry_scale $ guard_flag
      $ seed_library_arg $ seed_candidates_arg)

(* ---- client (script-driven frame stream) ---- *)

module Json = Dadu_util.Json
module Pf = Dadu_service.Problem_file

let sockaddr_of_listen = function
  | Server.Unix_sock path -> Unix.ADDR_UNIX path
  | Server.Tcp (host, port) ->
    let ip =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    Unix.ADDR_INET (ip, port)

(* retry until the server's socket exists and accepts: the CI job starts
   the server in the background and races the client against its bind.
   The deadline is on the monotonic clock, so a wall-clock step neither
   cuts the wait short nor stretches it. *)
let connect_with_retry addr ~timeout_s =
  let deadline = Dadu_util.Trace.now_s () +. timeout_s in
  let rec go () =
    let domain =
      match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
    in
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
      when Dadu_util.Trace.now_s () < deadline ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.05;
      go ()
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)
  in
  go ()

module Client = Dadu_service.Client

let run_client connect script dump timeout_s retries backoff_ms read_timeout
    net_fault_plan net_fault_seed =
  match Pf.parse_script_file script with
  | Error msg ->
    Format.eprintf "dadu: %s: %s@." script msg;
    3
  | Ok ops ->
    let fault =
      match net_fault_plan with
      | None -> Ok Dadu_util.Fault.disabled
      | Some s ->
        Result.map
          (Dadu_util.Fault.arm ~seed:net_fault_seed)
          (Dadu_util.Fault.parse_plan s)
    in
    (match fault with
    | Error msg ->
      Format.eprintf "dadu: %s@." msg;
      3
    | Ok fault ->
      let addr = sockaddr_of_listen connect in
      let connect () = connect_with_retry addr ~timeout_s in
      let read_timeout_s = if read_timeout > 0. then Some read_timeout else None in
      (match
         Client.run ~retries ~backoff_ms ~seed:net_fault_seed ?read_timeout_s
           ~fault ~on_event:print_endline
           ~on_reconnect:(fun k ->
             Format.eprintf "dadu: connection lost, reconnecting (attempt %d)@."
               k)
           ~connect ops
       with
      | Error (Client.Connect msg) ->
        Format.eprintf "dadu: cannot connect: %s@." msg;
        4
      | Error (Client.Unrecovered msg) ->
        Format.eprintf "dadu: stream failed: %s@." msg;
        6
      | Ok o ->
        Format.printf "solve replies: %d@." (List.length o.Client.solves);
        let dumped =
          match dump with
          | None -> true
          | Some path ->
            written "dump" (fun () ->
                let out = open_out path in
                Fun.protect
                  ~finally:(fun () -> close_out out)
                  (fun () ->
                    List.iter
                      (fun (_, payload) ->
                        output_string out payload;
                        output_char out '\n')
                      o.Client.solves))
        in
        if not dumped then 3 else if o.Client.overloaded > 0 then 5 else 0))

let connect_arg =
  let doc = "Server address (same forms as serve --listen)." in
  Arg.(
    required
    & opt (some listen_conv) None
    & info [ "connect" ] ~docv:"ADDR" ~doc)

let script_arg =
  let doc =
    "Op script: hello/open/waypoint/solve/ping/close/stats/raw lines (see \
     Dadu_service.Problem_file for the format)."
  in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT" ~doc)

let dump_arg =
  let doc =
    "Write solve-type replies (solved/rejected/faulted/overloaded), one \
     JSON line each sorted by request id, to this file — byte-comparable \
     across server pool sizes."
  in
  Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)

let timeout_arg =
  let doc = "Seconds to keep retrying the initial connection." in
  Arg.(value & opt float 10.0 & info [ "timeout" ] ~doc)

let client_retries_arg =
  let doc =
    "Reconnection budget: when the stream dies mid-script, back off, \
     reconnect (re-sending the session prelude), and resend every \
     unanswered op — resent waypoints carry their seq so a journal-backed \
     server replays committed replies instead of re-solving."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let client_backoff_arg =
  let doc =
    "Base reconnect back-off in milliseconds (exponential in consecutive \
     failures, jittered, capped at 10s)."
  in
  Arg.(value & opt int 100 & info [ "backoff" ] ~docv:"MS" ~doc)

let client_read_timeout_arg =
  let doc =
    "Treat this many seconds without a reply (or with a reply frame stuck \
     incomplete) as a dead connection; 0 waits forever."
  in
  Arg.(value & opt float 0. & info [ "read-timeout" ] ~docv:"SECONDS" ~doc)

let client_cmd =
  let doc =
    "Stream a script of ops at a running dadu serve instance: control \
     replies print in arrival order, solve-type replies are dumped sorted \
     by id for byte-exact comparison. Exit status: 0 all ops answered, 3 \
     bad script or --net-fault plan or unwritable --dump, 4 could not \
     connect, 5 answered but some replies were overloaded sheds, 6 stream \
     failed with the retry budget exhausted."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run_client $ connect_arg $ script_arg $ dump_arg $ timeout_arg
      $ client_retries_arg $ client_backoff_arg $ client_read_timeout_arg
      $ net_fault_plan_arg $ net_fault_seed_arg)

(* ---- posture-build ---- *)

let run_posture_build chain count seed cell out =
  match
    Dadu_service.Posture_library.build ?cell_size:cell ~seed ~chain ~count ()
  with
  | exception Invalid_argument msg ->
    Format.eprintf "dadu: %s@." msg;
    3
  | lib ->
    (match Dadu_service.Posture_library.save lib out with
    | Error e ->
      Format.eprintf "dadu: %s: %a@." out
        Dadu_service.Posture_library.pp_load_error e;
      3
    | Ok () ->
      Format.printf "Posture library: %s, %d postures (%d DOF), cell %.3f m -> %s@."
        (Dadu_service.Posture_library.chain_name lib)
        (Dadu_service.Posture_library.size lib)
        (Dadu_service.Posture_library.dof lib)
        (Dadu_service.Posture_library.cell_size lib)
        out;
      0)

let pb_count =
  let doc = "Number of postures to sample." in
  Arg.(value & opt int 256 & info [ "k"; "postures" ] ~doc)

let pb_cell =
  let doc = "Workspace grid cell side in meters (default: reach/8)." in
  Arg.(value & opt (some float) None & info [ "cell" ] ~docv:"M" ~doc)

let pb_out =
  let doc = "Output library file." in
  Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let posture_build_cmd =
  let doc =
    "Sample a per-chain posture library (FK-indexed joint configurations) \
     for speculative seed starts; load it with serve-batch --seed-library."
  in
  Cmd.v
    (Cmd.info "posture-build" ~doc)
    Term.(const run_posture_build $ robot $ pb_count $ seed $ pb_cell $ pb_out)

(* ---- fault-tolerance ---- *)

let run_fault_tolerance seed targets max_iters speculations prob bit json =
  let scale =
    { Dadu_experiments.Runner.targets; max_iterations = max_iters; speculations; seed }
  in
  let cells = Dadu_experiments.Fault_tolerance.run ~prob ~bit scale in
  Dadu_util.Table.print (Dadu_experiments.Fault_tolerance.to_table cells);
  (match json with
  | None -> ()
  | Some path ->
    Dadu_util.Json.write_file path
      (Dadu_experiments.Fault_tolerance.to_json cells);
    Format.printf "JSON  : %s@." path);
  0

let ft_targets =
  Arg.(value & opt int 25 & info [ "n"; "targets" ] ~doc:"Targets per DOF.")

let ft_prob =
  let doc = "Per-candidate probability of an SSU bit-flip." in
  Arg.(value & opt float 0.02 & info [ "prob" ] ~doc)

let ft_bit =
  let doc = "Which bit of the squared-error register to flip (0-63)." in
  Arg.(value & opt int 40 & info [ "bit" ] ~doc)

let ft_json =
  let doc = "Also write the cells as a JSON report to this file." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let fault_tolerance_cmd =
  let doc =
    "Inject SSU bit-flips into the accelerator simulator and measure flips \
     absorbed vs. runs corrupted, with and without selector re-verification."
  in
  Cmd.v
    (Cmd.info "fault-tolerance" ~doc)
    Term.(
      const run_fault_tolerance $ seed $ ft_targets $ max_iters $ speculations
      $ ft_prob $ ft_bit $ ft_json)

(* ---- describe ---- *)

let run_describe chain =
  print_string (Chain_format.to_string chain);
  0

let describe_cmd =
  let doc =
    "Print a robot as a description file (round-trips through --robot-file)."
  in
  Cmd.v (Cmd.info "describe" ~doc) Term.(const run_describe $ robot)

(* ---- robots ---- *)

let run_robots verbose =
  let entries =
    [
      ("arm6", Robots.arm_6dof ());
      ("arm7", Robots.arm_7dof ());
      ("scara", Robots.scara ());
      ("snake:30", Robots.snake ~dof:30);
      ("eval:12", Robots.eval_chain ~dof:12);
      ("eval:100", Robots.eval_chain ~dof:100);
      ("planar:6", Robots.planar ~dof:6 ~reach:6. ());
    ]
  in
  List.iter
    (fun (key, chain) ->
      Format.printf "%-10s %s: %d DOF, reach %.2f m@." key (Chain.name chain)
        (Chain.dof chain) (Chain.reach chain);
      if verbose then Format.printf "  %a@." Chain.pp chain)
    entries;
  0

let robots_cmd =
  let doc = "List built-in robot factories." in
  Cmd.v (Cmd.info "robots" ~doc) Term.(const run_robots $ verbose)

(* ---- main ---- *)

let () =
  let doc = "Quick-IK and IKAcc: inverse kinematics for high-DOF robots (DAC'17)" in
  let info = Cmd.info "dadu" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            solve_cmd;
            sweep_cmd;
            accel_cmd;
            batch_cmd;
            serve_batch_cmd;
            serve_cmd;
            client_cmd;
            posture_build_cmd;
            fault_tolerance_cmd;
            describe_cmd;
            robots_cmd;
          ]))
