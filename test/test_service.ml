(* Unit and property tests for Dadu_service: the batched IK serving layer
   (scheduler, seed selection, fallback chain, metrics, sessions). *)

open Dadu_linalg
open Dadu_kinematics
open Dadu_core
open Dadu_service
module Rng = Dadu_util.Rng
module Pool = Dadu_util.Domain_pool
module Trace = Dadu_util.Trace

let qcheck = QCheck_alcotest.to_alcotest

let eval12 = Robots.eval_chain ~dof:12

let random_problems ?(chain = eval12) ~seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Ik.random_problem rng chain)

(* ---- Ik.validate ---- *)

let test_validate_ok () =
  let p = (random_problems ~seed:1 1).(0) in
  Alcotest.(check bool) "valid problem accepted" true (Ik.validate p = Ok ())

let test_validate_dof_mismatch () =
  let p = (random_problems ~seed:2 1).(0) in
  let bad = { p with Ik.theta0 = Vec.create 5 } in
  match Ik.validate bad with
  | Error (Ik.Dof_mismatch { expected = 12; got = 5 }) -> ()
  | _ -> Alcotest.fail "expected Dof_mismatch {expected=12; got=5}"

let test_validate_nan_target () =
  let p = (random_problems ~seed:3 1).(0) in
  let bad = { p with Ik.target = Vec3.make 1.0 Float.nan 0.5 } in
  Alcotest.(check bool) "nan target rejected" true
    (Ik.validate bad = Error Ik.Nonfinite_target);
  let inf = { p with Ik.target = Vec3.make Float.infinity 0. 0. } in
  Alcotest.(check bool) "infinite target rejected" true
    (Ik.validate inf = Error Ik.Nonfinite_target)

let test_validate_nan_theta0 () =
  let p = (random_problems ~seed:4 1).(0) in
  let theta0 = Vec.copy p.Ik.theta0 in
  theta0.(3) <- Float.nan;
  Alcotest.(check bool) "nan theta0 rejected" true
    (Ik.validate { p with Ik.theta0 } = Error Ik.Nonfinite_theta0)

(* ---- Scheduler ---- *)

let test_scheduler_map_positional () =
  let pool = Pool.create 3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let xs = Array.init 37 Fun.id in
  let serial = Scheduler.create () in
  let parallel = Scheduler.create ~pool () in
  let f x = x * x in
  let expect = Array.map (fun x -> Ok (f x)) xs in
  Alcotest.(check bool) "serial positional" true (Scheduler.map serial f xs = expect);
  Alcotest.(check bool) "parallel positional" true
    (Scheduler.map parallel f xs = expect)

let test_scheduler_captures_exceptions () =
  let pool = Pool.create 3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let sched = Scheduler.create ~pool () in
  let xs = Array.init 10 Fun.id in
  let results = Scheduler.map sched (fun x -> if x = 5 then failwith "boom" else x) xs in
  Array.iteri
    (fun i r ->
      match r with
      | Ok x -> Alcotest.(check int) (Printf.sprintf "item %d" i) i x
      | Error (Failure msg) ->
        Alcotest.(check int) "only item 5 fails" 5 i;
        Alcotest.(check string) "message kept" "boom" msg
      | Error _ -> Alcotest.fail "unexpected exception")
    results;
  (* the pool survives for the next wave *)
  Alcotest.(check bool) "pool reusable" true
    (Scheduler.map sched Fun.id xs = Array.map (fun x -> Ok x) xs)

(* prepare/commit interleaving is serial, in input order, and identical with
   and without a pool — the property the session-slot and metrics
   determinism rides on *)
let test_scheduler_chunk_phases () =
  let run pool =
    let sched = Scheduler.create ?pool ~chunk:3 () in
    let events = ref [] in
    let xs = Array.init 8 Fun.id in
    let out =
      Scheduler.map_deadlined sched
        ~prepare:
          (Array.map (fun (d : Scheduler.dispatch) ->
               events := `P d.Scheduler.index :: !events;
               xs.(d.Scheduler.index)))
        ~work:(fun x -> 10 * x)
        ~commit:(fun i _ -> events := `C i :: !events)
        (Array.length xs)
    in
    (List.rev !events, out)
  in
  let serial_events, serial_out = run None in
  let pool = Pool.create 4 in
  let pooled_events, pooled_out =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () -> run (Some pool)
  in
  let expected_events =
    [
      `P 0; `P 1; `P 2; `C 0; `C 1; `C 2;
      `P 3; `P 4; `P 5; `C 3; `C 4; `C 5;
      `P 6; `P 7; `C 6; `C 7;
    ]
  in
  Alcotest.(check bool) "serial phases in order" true (serial_events = expected_events);
  Alcotest.(check bool) "pooled phases identical" true (pooled_events = expected_events);
  Alcotest.(check bool) "results positional" true
    (serial_out = Array.init 8 (fun i -> Ok (10 * i)) && pooled_out = serial_out)

(* ---- Fallback ---- *)

let budget max_iterations = { Ik.default_config with Ik.max_iterations }

let test_fallback_first_solver_wins () =
  let p = (random_problems ~seed:7 1).(0) in
  let o =
    Fallback.run ~chain:[ Fallback.Quick_ik; Fallback.Dls ] ~config:(budget 3_000) p
  in
  Alcotest.(check bool) "converged" true (o.Fallback.result.Ik.status = Ik.Converged);
  Alcotest.(check bool) "primary solver" true (o.Fallback.solver = Fallback.Quick_ik);
  Alcotest.(check int) "no fallbacks" 0 o.Fallback.fallbacks;
  Alcotest.(check int) "one attempt" 1 o.Fallback.attempts

let test_fallback_chains_to_next () =
  (* JT-Serial on the ill-conditioned eval chain cannot converge in 5
     iterations; DLS picks it up *)
  let p = (random_problems ~seed:8 1).(0) in
  let o =
    Fallback.run
      ~chain:[ Fallback.Jt_serial; Fallback.Dls ]
      ~config:(budget 1_000) p
  in
  Alcotest.(check bool) "converged via fallback" true
    (o.Fallback.result.Ik.status = Ik.Converged);
  Alcotest.(check bool) "dls produced it" true (o.Fallback.solver = Fallback.Dls);
  Alcotest.(check int) "one fallback" 1 o.Fallback.fallbacks;
  Alcotest.(check int) "two attempts" 2 o.Fallback.attempts

let test_fallback_keeps_best_when_none_converge () =
  let rng = Rng.create 9 in
  let p =
    Ik.problem ~chain:eval12 ~target:(Target.unreachable rng eval12)
      ~theta0:(Target.random_config rng eval12)
  in
  let o =
    Fallback.run
      ~chain:[ Fallback.Jt_serial; Fallback.Quick_ik ]
      ~config:(budget 40) p
  in
  Alcotest.(check bool) "not converged" true
    (o.Fallback.result.Ik.status <> Ik.Converged);
  Alcotest.(check int) "whole chain tried" 2 o.Fallback.attempts;
  (* the reported result really is the best attempt: re-run both solvers *)
  let a = Jt_serial.solve ~config:(budget 40) p in
  let b = Quick_ik.solve ~speculations:64 ~config:(budget 40) p in
  let best = Float.min a.Ik.error b.Ik.error in
  Alcotest.(check (float 1e-12)) "best error kept" best o.Fallback.result.Ik.error

let test_fallback_empty_chain () =
  let p = (random_problems ~seed:10 1).(0) in
  Alcotest.check_raises "empty chain rejected"
    (Invalid_argument "Fallback.run: empty solver chain") (fun () ->
      ignore (Fallback.run ~chain:[] ~config:(budget 10) p))

let test_fallback_chain_parsing () =
  (match Fallback.chain_of_string "quick-ik, dls,sdls" with
  | Ok chain ->
    Alcotest.(check string) "round trip" "quick-ik,dls,sdls"
      (Fallback.chain_to_string chain)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "unknown solver rejected" true
    (Result.is_error (Fallback.chain_of_string "quick-ik,warp-drive"));
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (Fallback.chain_of_string ""))

(* Satellite property: whatever the problem (reachable or not) and however
   small the budget, a [Converged] outcome always carries an FK-verified
   error within accuracy. *)
let test_fallback_never_lies =
  QCheck.Test.make
    ~name:"fallback never reports Converged with FK error above accuracy"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let chain = Robots.eval_chain ~dof:(6 + Rng.int rng 10) in
      let target =
        if Rng.int rng 3 = 0 then Target.unreachable rng chain
        else Target.reachable rng chain
      in
      let p = Ik.problem ~chain ~target ~theta0:(Target.random_config rng chain) in
      let config = budget (10 + Rng.int rng 200) in
      let o =
        Fallback.run
          ~chain:[ Fallback.Quick_ik; Fallback.Dls; Fallback.Sdls ]
          ~config p
      in
      match o.Fallback.result.Ik.status with
      | Ik.Converged ->
        Ik.error_of chain target o.Fallback.result.Ik.theta
        <= config.Ik.accuracy +. 1e-12
      | Ik.Max_iterations | Ik.Stalled | Ik.Diverged -> true)

(* ---- Metrics ---- *)

let test_metrics_sums () =
  let m = Metrics.create () in
  Metrics.record m (Metrics.Rejected Ik.Nonfinite_target);
  Metrics.record m (Metrics.Faulted "Stack_overflow");
  Metrics.record m
    (Metrics.Solved
       {
         converged = true;
         diverged = false;
         fallbacks = 0;
         session = false;
         session_hit = false;
         deadline_exceeded = false;
         breaker_skips = 0;
         retries = 0;
         retry_converged = false;
         latency_s = 1e-3;
         iterations = 5;
       });
  Metrics.record m
    (Metrics.Solved
       {
         converged = true;
         diverged = false;
         fallbacks = 2;
         session = false;
         session_hit = false;
         deadline_exceeded = true;
         breaker_skips = 0;
         retries = 0;
         retry_converged = false;
         latency_s = 2e-3;
         iterations = 50;
       });
  Metrics.record m
    (Metrics.Solved
       {
         converged = false;
         diverged = true;
         fallbacks = 1;
         session = false;
         session_hit = false;
         deadline_exceeded = false;
         breaker_skips = 1;
         retries = 2;
         retry_converged = false;
         latency_s = 3e-3;
         iterations = 100;
       });
  let s = Metrics.snapshot m in
  Alcotest.(check int) "requests" 5 s.Metrics.requests;
  Alcotest.(check int) "converged" 2 s.Metrics.converged;
  Alcotest.(check int) "failed" 1 s.Metrics.failed;
  Alcotest.(check int) "rejected" 1 s.Metrics.rejected;
  Alcotest.(check int) "faulted" 1 s.Metrics.faulted;
  Alcotest.(check int) "fallback used" 2 s.Metrics.fallback_used;
  Alcotest.(check int) "deadline exceeded" 1 s.Metrics.deadline_exceeded;
  Alcotest.(check int) "sum invariant" s.Metrics.requests
    (s.Metrics.converged + s.Metrics.failed + s.Metrics.rejected + s.Metrics.faulted);
  (match s.Metrics.latency with
  | Some l ->
    Alcotest.(check int) "latency samples" 3 l.Dadu_util.Histogram.n;
    Alcotest.(check (float 1e-12)) "latency max" 3e-3 l.Dadu_util.Histogram.max
  | None -> Alcotest.fail "expected latency samples");
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Metrics.snapshot m).Metrics.requests

let test_metrics_render () =
  let m = Metrics.create () in
  Metrics.record m
    (Metrics.Solved
       {
         converged = true;
         diverged = false;
         fallbacks = 0;
         session = false;
         session_hit = false;
         deadline_exceeded = false;
         breaker_skips = 0;
         retries = 0;
         retry_converged = false;
         latency_s = 5e-4;
         iterations = 7;
       });
  let rendered = Metrics.render (Metrics.snapshot m) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %s" needle) true
        (Astring.String.is_infix ~affix:needle rendered))
    [
      "requests"; "converged"; "deadline exceeded"; "latency p50";
      "latency p99"; "iterations p95";
    ]

(* ---- Service ---- *)

let service_config ?(solvers = [ Fallback.Quick_ik; Fallback.Dls ]) ?(chunk = 8) () =
  { Service.default_config with Service.solvers; chunk; max_iterations = 1_500 }

(* A heterogeneous batch: two chains, with every 12-DOF target revisited
   later in the batch (different random start), far enough apart to land in
   a different chunk. *)
let mixed_batch ~seed n =
  let rng = Rng.create seed in
  let arm = Robots.arm_7dof () in
  let base =
    Array.init n (fun i ->
        if i mod 3 = 0 then Ik.random_problem rng arm
        else Ik.random_problem rng eval12)
  in
  let revisits =
    Array.map
      (fun (p : Ik.problem) ->
        { p with Ik.theta0 = Target.random_config rng p.Ik.chain })
      base
  in
  Array.append base revisits

let strip_latency = function
  | Service.Solved
      {
        result;
        solver;
        fallbacks;
        session_hit;
        deadline_exceeded;
        breaker_skips;
        retries;
        retry_converged;
        trail;
        latency_s = _;
        _;
      } ->
    `Solved
      ( result,
        solver,
        fallbacks,
        session_hit,
        deadline_exceeded,
        breaker_skips,
        retries,
        retry_converged,
        trail )
  | Service.Rejected invalid -> `Rejected invalid
  | Service.Faulted msg -> `Faulted msg

(* Acceptance: byte-identical results across pool sizes 1 and N. *)
let test_service_determinism_across_pool_sizes () =
  let problems = mixed_batch ~seed:2017 18 in
  let solo =
    let s = Service.create ~config:(service_config ()) () in
    Array.map strip_latency (Service.solve_batch s problems)
  in
  let pooled =
    let pool = Pool.create (Stdlib.max 2 (Pool.recommended_size ())) in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let s = Service.create ~pool ~config:(service_config ()) () in
    Array.map strip_latency (Service.solve_batch s problems)
  in
  (* structural equality on float arrays is byte equality (no NaNs here) *)
  Alcotest.(check bool) "replies byte-identical across pool sizes" true (solo = pooled)

(* A one-shot reply is a pure function of (request, ordinal, config).
   With breakers, fault plans and deadlines off it is byte-identical
   across wave sizes 1/8/64 and pools 1/2/4, and it stays the same when
   the other requests' targets change.  Every batch revisits earlier
   targets in later waves: no request's answer may seed another's. *)
let test_oneshot_replies_independent =
  QCheck.Test.make
    ~name:"one-shot replies independent of chunk, pool and other targets"
    ~count:5
    QCheck.(triple (int_range 1 10) (int_range 0 100_000) bool)
    (fun (n, seed, seeded) ->
      let n = max 1 n in
      let rng = Rng.create seed in
      let first = Array.init n (fun _ -> Ik.random_problem rng eval12) in
      (* revisits: an earlier target, from its own start or a new one *)
      let revisits =
        Array.init n (fun _ ->
            let p = first.(Rng.int rng n) in
            if Rng.int rng 2 = 0 then p
            else { p with Ik.theta0 = Target.random_config rng eval12 })
      in
      let batch = Array.append first revisits in
      let library = Posture_library.build ~chain:eval12 ~count:32 ~seed:9 () in
      let run ?pool chunk problems =
        let config =
          {
            (service_config ~chunk ()) with
            Service.max_iterations = 250;
            seed_library = Some library;
            seed_candidates = (if seeded then 3 else 1);
          }
        in
        let s = Service.create ?pool ~config () in
        Service.solve_requests s
          (Array.mapi (fun i p -> Service.request ~ordinal:i p) problems)
        |> Array.map strip_latency
      in
      let reference = run 64 batch in
      let invariant =
        List.for_all
          (fun size ->
            let pool = Option.map Pool.create size in
            Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool)
            @@ fun () ->
            List.for_all
              (fun chunk -> run ?pool chunk batch = reference)
              [ 1; 8; 64 ])
          [ None; Some 2; Some 4 ]
      in
      (* the odd positions aim elsewhere; the even replies must not move *)
      let moved =
        Array.mapi
          (fun i (p : Ik.problem) ->
            if i mod 2 = 0 then p
            else { p with Ik.target = Target.reachable rng eval12 })
          batch
      in
      let others_changed = run 8 moved in
      invariant
      && Array.for_all Fun.id
           (Array.mapi (fun i r -> i mod 2 = 1 || r = reference.(i)) others_changed))

let test_service_counter_consistency () =
  let rng = Rng.create 11 in
  let good = mixed_batch ~seed:23 6 in
  let nan_target =
    { (Ik.random_problem rng eval12) with Ik.target = Vec3.make Float.nan 0. 0. }
  in
  let wrong_dof = { (Ik.random_problem rng eval12) with Ik.theta0 = Vec.create 3 } in
  let unreachable =
    Ik.problem ~chain:eval12 ~target:(Target.unreachable rng eval12)
      ~theta0:(Target.random_config rng eval12)
  in
  let problems = Array.concat [ good; [| nan_target; wrong_dof; unreachable |] ] in
  let s =
    Service.create
      ~config:{ (service_config ()) with Service.max_iterations = 60 }
      ()
  in
  let replies = Service.solve_batch s problems in
  let m = Service.metrics s in
  Alcotest.(check int) "requests = batch size" (Array.length problems) m.Metrics.requests;
  Alcotest.(check int) "converged + failed + rejected + faulted = requests"
    m.Metrics.requests
    (m.Metrics.converged + m.Metrics.failed + m.Metrics.rejected + m.Metrics.faulted);
  Alcotest.(check int) "rejected both malformed" 2 m.Metrics.rejected;
  Alcotest.(check bool) "unreachable failed, not crashed" true (m.Metrics.failed >= 1);
  (* typed rejections land at the right positions *)
  (match replies.(Array.length good) with
  | Service.Rejected Ik.Nonfinite_target -> ()
  | _ -> Alcotest.fail "expected Rejected Nonfinite_target");
  match replies.(Array.length good + 1) with
  | Service.Rejected (Ik.Dof_mismatch _) -> ()
  | _ -> Alcotest.fail "expected Rejected Dof_mismatch"

let test_service_fallback_counted () =
  let rng = Rng.create 13 in
  let p = Ik.random_problem rng eval12 in
  let s =
    Service.create
      ~config:
        {
          (service_config ~solvers:[ Fallback.Jt_serial; Fallback.Dls ] ()) with
          Service.max_iterations = 1_000;
        }
      ()
  in
  (match (Service.solve_batch s [| p |]).(0) with
  | Service.Solved { solver; fallbacks; result; _ } ->
    Alcotest.(check bool) "converged" true (result.Ik.status = Ik.Converged);
    Alcotest.(check bool) "dls after jt-serial" true (solver = Fallback.Dls);
    Alcotest.(check int) "one fallback" 1 fallbacks
  | _ -> Alcotest.fail "expected a solved reply");
  let m = Service.metrics s in
  Alcotest.(check int) "fallback_used" 1 m.Metrics.fallback_used

let test_service_empty_batch () =
  let s = Service.create () in
  Alcotest.(check int) "empty batch" 0 (Array.length (Service.solve_batch s [||]));
  Alcotest.(check int) "no requests" 0 (Service.metrics s).Metrics.requests

let test_service_invalid_config () =
  Alcotest.check_raises "empty chain"
    (Invalid_argument "Service.create: empty solver chain") (fun () ->
      ignore
        (Service.create ~config:{ Service.default_config with Service.solvers = [] } ()));
  Alcotest.check_raises "bad speculations"
    (Invalid_argument "Service.create: speculations must be positive") (fun () ->
      ignore
        (Service.create
           ~config:{ Service.default_config with Service.speculations = 0 }
           ()))

(* Property: counters stay consistent and replies stay positional for
   arbitrary batch sizes and chunk sizes. *)
let test_service_counters_property =
  QCheck.Test.make ~name:"metrics counters sum consistently" ~count:25
    QCheck.(pair (int_range 0 24) (int_range 1 9))
    (fun (n, chunk) ->
      let problems = random_problems ~seed:(n + (100 * chunk)) n in
      let s =
        Service.create
          ~config:{ (service_config ~chunk ()) with Service.max_iterations = 300 }
          ()
      in
      let replies = Service.solve_batch s problems in
      let m = Service.metrics s in
      Array.length replies = n
      && m.Metrics.requests = n
      && m.Metrics.converged + m.Metrics.failed + m.Metrics.rejected + m.Metrics.faulted
         = n)

(* ---- deadlines: scheduler expiry under a fake clock ---- *)

(* The clock is called once for the batch epoch and once per dispatch,
   in input order as each wave starts, so with a tick-per-call fake the
   elapsed time at item [i] is exactly [i + 1] — expiry becomes a pure
   function of the index, testable without sleeping. *)
let test_scheduler_deadline_expiry () =
  let sched = Scheduler.create ~chunk:3 () in
  let ticks = ref (-1) in
  let now () =
    incr ticks;
    float_of_int !ticks
  in
  let xs = Array.init 8 Fun.id in
  let elapsed_seen = ref [] in
  let out =
    Scheduler.map_deadlined sched ~now ~budget_s:6.5
      ~deadline_s:(fun i -> if i mod 2 = 1 then Some 0. else None)
      ~prepare:
        (Array.map (fun (d : Scheduler.dispatch) ->
             elapsed_seen := d.Scheduler.elapsed_s :: !elapsed_seen;
             (xs.(d.Scheduler.index), d.Scheduler.expired)))
      ~work:Fun.id
      ~commit:(fun _ _ -> ())
      (Array.length xs)
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok (x, expired) ->
        Alcotest.(check int) "positional" i x;
        (* elapsed at item i is i+1: odd items die on their 0 s deadline,
           items 6 and 7 on the 6.5 s budget (elapsed 7 and 8) *)
        let expect = i mod 2 = 1 || i + 1 >= 7 in
        Alcotest.(check bool) (Printf.sprintf "expiry of %d" i) expect expired
      | Error _ -> Alcotest.fail "no work item should fail")
    out;
  Alcotest.(check (list (float 1e-9)))
    "elapsed is the prepare call number"
    [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. ]
    (List.rev !elapsed_seen)

(* Without deadlines or a budget the clock is read but cannot change
   anything: even a clock running wildly backwards yields expired=false
   everywhere. *)
let test_scheduler_no_deadline_ignores_clock () =
  let sched = Scheduler.create ~chunk:2 () in
  let rng = Rng.create 99 in
  let now () = Rng.uniform rng (-1e9) 1e9 in
  let out =
    Scheduler.map_deadlined sched ~now
      ~prepare:(Array.map (fun (d : Scheduler.dispatch) -> d.Scheduler.expired))
      ~work:Fun.id
      ~commit:(fun _ _ -> ())
      7
  in
  Array.iter
    (function
      | Ok expired ->
        Alcotest.(check bool) "never expired without limits" false expired
      | Error _ -> Alcotest.fail "no work item should fail")
    out

(* ---- deadlines: the serving layer ---- *)

let test_service_all_expired () =
  let problems = random_problems ~seed:77 6 in
  let requests = Array.map (fun p -> Service.request p) problems in
  let s = Service.create ~config:(service_config ()) () in
  let replies = Service.solve_requests ~budget_s:0. s requests in
  Array.iteri
    (fun i r ->
      match r with
      | Service.Solved { deadline_exceeded; fallbacks; solver; _ } ->
        Alcotest.(check bool) (Printf.sprintf "%d tagged" i) true deadline_exceeded;
        Alcotest.(check int) (Printf.sprintf "%d no fallbacks" i) 0 fallbacks;
        Alcotest.(check bool)
          (Printf.sprintf "%d served by the cheapest tier" i)
          true (solver = Fallback.Quick_ik)
      | _ -> Alcotest.fail "expected a solved reply")
    replies;
  let m = Service.metrics s in
  Alcotest.(check int) "all counted deadline-exceeded" 6 m.Metrics.deadline_exceeded;
  Alcotest.(check int) "no fallback counted" 0 m.Metrics.fallback_used

let test_service_mixed_deadlines () =
  let problems = random_problems ~seed:78 6 in
  let requests =
    Array.mapi
      (fun i p ->
        if i mod 2 = 0 then Service.request ~deadline_s:0. p else Service.request p)
      problems
  in
  let s = Service.create ~config:(service_config ()) () in
  let replies = Service.solve_requests s requests in
  Array.iteri
    (fun i r ->
      match r with
      | Service.Solved { deadline_exceeded; fallbacks; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "%d expiry matches its deadline" i)
          (i mod 2 = 0) deadline_exceeded;
        if i mod 2 = 0 then
          Alcotest.(check int) (Printf.sprintf "%d short-circuited" i) 0 fallbacks
      | _ -> Alcotest.fail "expected a solved reply")
    replies;
  Alcotest.(check int) "three expired" 3 (Service.metrics s).Metrics.deadline_exceeded;
  Alcotest.check_raises "negative deadline rejected"
    (Invalid_argument "Service.request: deadline_s must be non-negative") (fun () ->
      ignore (Service.request ~deadline_s:(-0.1) problems.(0)))

(* Acceptance: the deterministic path is byte-identical across pool sizes
   1/2/4 for batch sizes drawn from 1..64. *)
let test_service_parallel_determinism =
  QCheck.Test.make ~name:"replies identical across pool sizes 1/2/4" ~count:8
    QCheck.(int_range 1 64)
    (fun n ->
      let problems = random_problems ~seed:(3000 + n) n in
      let run pool =
        let s =
          Service.create ?pool
            ~config:{ (service_config ~chunk:7 ()) with Service.max_iterations = 250 }
            ()
        in
        Array.map strip_latency (Service.solve_batch s problems)
      in
      let solo = run None in
      List.for_all
        (fun size ->
          let pool = Pool.create size in
          Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
          run (Some pool) = solo)
        [ 2; 4 ])

(* ---- multi-seed speculative starts ---- *)

(* No answer crosses from one request to another: after a converged solve
   on one chain, neither an equal-DOF different chain aimed at the same
   target nor a same-chain revisit is warm-started from it — each replies
   exactly as a fresh service that sees it alone. *)
let test_service_no_cross_chain_seed () =
  let planar6 = Robots.planar ~dof:6 ~reach:6. () in
  let eval6 = Robots.eval_chain ~dof:6 in
  Alcotest.(check int) "same dof" (Chain.dof planar6) (Chain.dof eval6);
  let target = Vec3.make 2.0 1.0 0.0 in
  let rng = Rng.create 31 in
  let prob chain =
    Ik.problem ~chain ~target ~theta0:(Target.random_config rng chain)
  in
  let s = Service.create ~config:(service_config ()) () in
  (match (Service.solve_batch s [| prob planar6 |]).(0) with
  | Service.Solved { result; _ } ->
    Alcotest.(check bool) "first chain converges" true
      (result.Ik.status = Ik.Converged)
  | _ -> Alcotest.fail "expected Solved");
  let later = [| prob eval6; prob planar6 |] in
  let replies = Array.map strip_latency (Service.solve_batch s later) in
  let alone p =
    let fresh = Service.create ~config:(service_config ()) () in
    strip_latency (Service.solve_batch fresh [| p |]).(0)
  in
  Alcotest.(check bool) "equal-DOF stranger solves as if alone" true
    (replies.(0) = alone later.(0));
  Alcotest.(check bool) "same-chain revisit solves as if alone" true
    (replies.(1) = alone later.(1))

let seeded_config ?(candidates = 4) ~library () =
  {
    (service_config ~chunk:7 ()) with
    Service.max_iterations = 250;
    seed_library = Some library;
    seed_candidates = candidates;
  }

(* Pin: --seed-candidates 1 is the classic path — replies are
   bitwise unchanged even with a library configured. *)
let test_seed_candidates_one_is_classic_path () =
  let problems = mixed_batch ~seed:411 12 in
  let run config =
    let s = Service.create ~config () in
    Array.map strip_latency (Service.solve_batch s problems)
  in
  let library = Posture_library.build ~chain:eval12 ~count:64 ~seed:5 () in
  let seeded1 = run (seeded_config ~candidates:1 ~library ()) in
  (* the same config, library off *)
  let classic =
    run { (seeded_config ~candidates:1 ~library ()) with seed_library = None }
  in
  Alcotest.(check bool)
    "seed_candidates=1 leaves replies untouched" true
    (classic = seeded1)

(* Acceptance: with speculative seeding enabled (library + multi-seed),
   replies are byte-identical across pool sizes 1/2/4. *)
let test_seeded_determinism =
  QCheck.Test.make ~name:"seeded replies identical across pools 1/2/4"
    ~count:6
    QCheck.(int_range 1 40)
    (fun n ->
      let problems = mixed_batch ~seed:(7000 + n) n in
      let library = Posture_library.build ~chain:eval12 ~count:64 ~seed:9 () in
      let run pool =
        let s = Service.create ?pool ~config:(seeded_config ~library ()) () in
        Array.map strip_latency (Service.solve_batch s problems)
      in
      let reference = run None in
      List.for_all
        (fun size ->
          let pool = Pool.create size in
          Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
          run (Some pool) = reference)
        [ 2; 4 ])

(* The wave prepare (frozen wave snapshot + wave-fused SoA candidate
   scoring on the pool) produces replies byte-identical to the no-pool
   run — across pools 1/2/4, candidate counts S in 1..8, mixed DOF from 3
   to 100 in one wave, and with a fault plan armed (fault forks are
   frozen into the snapshot). *)
let test_prepare_pool_identity =
  QCheck.Test.make
    ~name:
      "seeded prepare replies identical across pools none/1/2/4 (S 1..8, \
       mixed DOF, faults)"
    ~count:5
    QCheck.(pair (int_range 1 10) (int_range 1 8))
    (fun (n, candidates) ->
      (* shrinkers may probe below the generator's lower bound *)
      let n = max 1 n and candidates = max 1 candidates in
      let chains =
        [|
          Robots.eval_chain ~dof:3;
          eval12;
          Robots.eval_chain ~dof:47;
          Robots.eval_chain ~dof:100;
        |]
      in
      let rng = Rng.create (9000 + n + (131 * candidates)) in
      let problems =
        Array.init n (fun i -> Ik.random_problem rng chains.(i mod 4))
      in
      let library = Posture_library.build ~chain:eval12 ~count:32 ~seed:9 () in
      let fault =
        Dadu_util.Fault.arm ~seed:7
          [
            {
              Dadu_util.Fault.site = "solver-nan";
              trigger = Dadu_util.Fault.First 2;
              arg = 0.;
            };
          ]
      in
      let run pool =
        let s =
          Service.create ?pool
            ~config:
              {
                (seeded_config ~candidates ~library ()) with
                Service.fault;
                max_iterations = 150;
              }
            ()
        in
        (* Marshal bytes, not [=]: the armed solver-nan fault writes NaN
           into theta and NaN <> NaN structurally — the serialized bytes
           are the actual "byte-identical" pin. *)
        Array.map
          (fun r -> Marshal.to_string (strip_latency r) [])
          (Service.solve_batch s problems)
      in
      let reference = run None in
      List.for_all
        (fun size ->
          let pool = Pool.create size in
          Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
          run (Some pool) = reference)
        [ 1; 2; 4 ])

(* The wave-phase breakdown accounts the batch: all three phases record
   time, and candidate scoring is booked under the prepare phase
   (per-phase workspace accounting is monotone). *)
let test_phase_breakdown_records () =
  let problems = mixed_batch ~seed:271 10 in
  let library = Posture_library.build ~chain:eval12 ~count:32 ~seed:4 () in
  let s = Service.create ~config:(seeded_config ~library ()) () in
  ignore (Service.solve_batch s problems);
  let m = Service.metrics s in
  Alcotest.(check bool) "prepare time recorded" true (m.Metrics.prepare_s > 0.);
  Alcotest.(check bool) "work time recorded" true (m.Metrics.work_s > 0.);
  Alcotest.(check bool) "commit time recorded" true (m.Metrics.commit_s > 0.);
  (match Metrics.serial_fraction m with
  | Some f -> Alcotest.(check bool) "serial fraction in (0,1]" true (f > 0. && f <= 1.)
  | None -> Alcotest.fail "expected a serial fraction");
  Service.reset_metrics s;
  let m = Service.metrics s in
  Alcotest.(check bool) "reset clears phase accumulators" true
    (m.Metrics.prepare_s = 0. && m.Metrics.work_s = 0. && m.Metrics.commit_s = 0.)

(* The selector's winner beats or matches every request's own start by
   construction, and the metrics provenance counters account for every
   valid request exactly once. *)
let test_seeded_metrics_accounting () =
  let problems = random_problems ~seed:99 10 in
  let library = Posture_library.build ~chain:eval12 ~count:64 ~seed:3 () in
  let s = Service.create ~config:(seeded_config ~library ()) () in
  ignore (Service.solve_batch s problems);
  let m = Service.metrics s in
  Alcotest.(check int) "every request offered a library candidate" 10
    m.Metrics.library_hits;
  Alcotest.(check int) "seed wins partition the batch" 10
    (m.Metrics.seed_theta0_wins + m.Metrics.seed_library_wins
    + m.Metrics.seed_zero_wins + m.Metrics.seed_perturbed_wins)

(* ---- tracing ---- *)

let test_service_trace_spans () =
  let problems = random_problems ~seed:79 4 in
  problems.(1) <- { problems.(1) with Ik.theta0 = Vec.create 3 };
  let requests = Array.map (fun p -> Service.request p) problems in
  let trace = Trace.create () in
  let s = Service.create ~config:(service_config ()) () in
  let replies = Service.solve_requests ~trace s requests in
  Alcotest.(check int) "all answered" 4 (Array.length replies);
  let spans = Trace.spans trace in
  Alcotest.(check int) "length counts every span" (List.length spans)
    (Trace.length trace);
  (* compared as multisets: spans sort by start time, and two spans of one
     request can share a clock reading *)
  let phases i =
    List.filter_map
      (fun (sp : Trace.span) -> if sp.Trace.request = i then Some sp.Trace.phase else None)
      spans
    |> List.sort compare
  in
  (* the rejected request never reaches the solve phase *)
  Alcotest.(check (list string)) "rejected: prepare and commit only"
    [ "commit"; "prepare" ] (phases 1);
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "request %d spans" i)
        [ "commit"; "fallback-tier"; "prepare"; "solve" ]
        (phases i))
    [ 0; 2; 3 ];
  List.iter
    (fun (sp : Trace.span) ->
      Alcotest.(check bool) "start offsets are non-negative" true (sp.Trace.start_s >= 0.);
      Alcotest.(check bool) "durations are non-negative" true (sp.Trace.dur_s >= 0.);
      if sp.Trace.phase = "fallback-tier" then begin
        Alcotest.(check bool) "tier spans name their solver" true
          (List.mem_assoc "solver" sp.Trace.attrs);
        Alcotest.(check bool) "tier spans carry a status" true
          (List.mem_assoc "status" sp.Trace.attrs)
      end)
    spans;
  (* every line of the export is standalone JSON with the span fields *)
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl trace)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one JSON line per span" (Trace.length trace)
    (List.length lines);
  List.iter
    (fun line ->
      match Dadu_util.Json.of_string line with
      | Error msg -> Alcotest.fail (Printf.sprintf "bad JSONL line %S: %s" line msg)
      | Ok json ->
        Alcotest.(check bool) "has request" true
          (Dadu_util.Json.member "request" json <> None);
        Alcotest.(check bool) "has phase" true
          (Dadu_util.Json.member "phase" json <> None))
    lines

(* ---- trajectory sessions ---- *)

let eval30 = Robots.eval_chain ~dof:30

(* a short Cartesian line through eval:30's workspace, 3 cm steps — the
   temporal-coherence workload the session slot exists for *)
let line_waypoints ?(start = Vec3.make 4.0 1.0 2.0) ?(step = 0.03) n =
  Array.init n (fun i ->
      Vec3.make start.Vec3.x (start.Vec3.y +. (float_of_int i *. step)) start.Vec3.z)

let session_requests ?(chain = eval30) sess targets =
  Array.map
    (fun target ->
      let theta0 = Chain.clamp_config chain (Vec.create (Chain.dof chain)) in
      Service.request ~session:sess
        ~ordinal:(Session.next_ordinal sess)
        (Ik.problem ~chain ~target ~theta0))
    targets

(* Acceptance pin: warm-started waypoints average <= 4 Quick-IK
   iterations at 30 DOF, against a cold start in the tens. *)
let test_session_warm_iteration_pin () =
  let sess = Session.create ~name:"pin" ~chain:eval30 in
  let requests = session_requests sess (line_waypoints ~step:0.02 12) in
  let s = Service.create ~config:(service_config ~chunk:8 ()) () in
  let replies = Service.solve_requests s requests in
  let iters = ref [] and cold = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Service.Solved { result; session_hit; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "waypoint %d converged" i)
          true
          (result.Ik.status = Ik.Converged);
        Alcotest.(check bool)
          (Printf.sprintf "waypoint %d warm iff not first" i)
          (i > 0) session_hit;
        if i = 0 then cold := result.Ik.iterations
        else iters := result.Ik.iterations :: !iters
      | _ -> Alcotest.fail "expected Solved")
    replies;
  let warm = List.map float_of_int !iters in
  let mean = List.fold_left ( +. ) 0. warm /. float_of_int (List.length warm) in
  Alcotest.(check bool)
    (Printf.sprintf "warm mean %.2f iters <= 4" mean)
    true (mean <= 4.);
  Alcotest.(check bool)
    (Printf.sprintf "cold start works hard (%d iters)" !cold)
    true
    (!cold > 20);
  let m = Service.metrics s in
  Alcotest.(check int) "all session requests" 12 m.Metrics.session_requests;
  Alcotest.(check int) "all but the first warm" 11 m.Metrics.session_warm

(* Satellite fix: two waypoints of one session landing in one scheduler
   chunk must still see each other's results — the wave cut makes the
   earlier ordinal's commit visible to the later one's prepare. *)
let test_session_intra_wave_ordering () =
  let targets = line_waypoints 2 in
  let solve_chunked chunk =
    let sess = Session.create ~name:"wave" ~chain:eval30 in
    let s = Service.create ~config:(service_config ~chunk ()) () in
    Array.map strip_latency
      (Service.solve_requests s (session_requests sess targets))
  in
  (* chunk 8: both waypoints land in one chunk; the cut must split them *)
  let together = solve_chunked 8 in
  (* chunk 1: waypoints in separate waves by construction — ground truth *)
  let apart = solve_chunked 1 in
  Alcotest.(check bool) "same replies whether or not they share a chunk" true
    (together = apart);
  match together.(1) with
  | `Solved (_, _, _, session_hit, _, _, _, _, _) ->
    Alcotest.(check bool) "second waypoint warm from the slot" true session_hit
  | _ -> Alcotest.fail "expected Solved"

(* Session replies must not change when the session is created against a
   different robot than the waypoints claim: the fingerprint guard serves
   the mismatched waypoint cold instead of feeding it a wrong-DOF seed. *)
let test_session_chain_mismatch_serves_cold () =
  let sess = Session.create ~name:"mismatch" ~chain:(Robots.eval_chain ~dof:7) in
  let requests = session_requests sess (line_waypoints 2) in
  let s = Service.create ~config:(service_config ()) () in
  let replies = Service.solve_requests s requests in
  Array.iter
    (fun r ->
      match r with
      | Service.Solved { session_hit; _ } ->
        Alcotest.(check bool) "mismatched chain never warm" false session_hit
      | _ -> Alcotest.fail "expected Solved")
    replies

(* The window's bytes, as the server remembers them, in a slab off the
   heap whose slots grow to the longest reply seen plus an eighth: a
   short [overloaded] shed, then eval:30 solved replies of ~860 B, then
   an eval:100 reply of ~2.8 KB that regrids the slab mid-window, then
   more solved replies until the window has moved on.  Every in-window
   ordinal recalls its exact bytes throughout, out-of-window ones none,
   and after [release] none at all, even of a late commit. *)
let window_bytes () =
  let name = "bytes" in
  let sess = Session.create ~name ~chain:eval30 in
  let s = Service.create ~config:(service_config ~chunk:8 ()) () in
  let solved = Service.solve_requests s (session_requests sess (line_waypoints 8)) in
  let enc = Server.encoder () in
  let encode o reply = Server.encode_reply enc ~id:o ~session:(Some name) ~ordinal:o reply in
  let shed o =
    Printf.sprintf "{\"reply\":\"overloaded\",\"id\":%d,\"session\":%S,\"retry_after_ms\":50}"
      o name
  in
  let long =
    encode 100
      (Service.solve_batch s (random_problems ~chain:(Robots.eval_chain ~dof:100) ~seed:5 1)).(0)
  in
  let remembered = Hashtbl.create 256 in
  let remember o payload =
    Hashtbl.replace remembered o payload;
    Session.remember_reply sess ~ordinal:o payload
  in
  let check_window ~newest what =
    for o = 0 to newest do
      let expect =
        if o > newest - 128 then Hashtbl.find_opt remembered o else None
      in
      if Session.recall_reply sess ~ordinal:o <> expect then
        Alcotest.failf "%s: ordinal %d of window (%d, %d] recalls the wrong bytes"
          what o (newest - 128) newest
    done
  in
  remember 0 (shed 0);
  for o = 1 to 99 do
    remember o (encode o solved.(o mod 8))
  done;
  let widest =
    Hashtbl.fold (fun _ p w -> max w (String.length p)) remembered 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "a %d-B shed and solved replies up to %d B" (String.length (shed 0)) widest)
    true
    (String.length (shed 0) < 100 && widest > 800);
  check_window ~newest:99 "before the regrid";
  Alcotest.(check bool)
    (Printf.sprintf "the %d-B reply is wider than the slots (at most %d B)"
       (String.length long) (widest + (widest / 8)))
    true
    (String.length long > widest + (widest / 8));
  remember 100 long;
  check_window ~newest:100 "after the regrid";
  for o = 101 to 300 do
    remember o (if o mod 50 = 0 then shed o else encode o solved.(o mod 8))
  done;
  check_window ~newest:300 "after the window moved on";
  Session.release sess;
  Session.remember_reply sess ~ordinal:301 (shed 301);
  Alcotest.(check (option string)) "nothing held after release" None
    (Session.recall_reply sess ~ordinal:300);
  Alcotest.(check (option string)) "a late commit leaves the window alone" None
    (Session.recall_reply sess ~ordinal:301)

(* The reply ring is a window: it holds exactly the remembered ordinals
   in (newest - 128, newest], however they arrived.  Remembering 200
   after 0-9 (the ordinals between were shed, and a replayed journal
   holds no shed) leaves none of 0-9 recallable; a later reply is kept
   only if it is still inside the window. *)
let test_session_reply_window () =
  let sess = Session.create ~name:"window" ~chain:eval12 in
  let reply o = Printf.sprintf "r%d" o in
  for o = 0 to 9 do
    Session.remember_reply sess ~ordinal:o (reply o)
  done;
  Alcotest.(check (option string)) "5 held before the jump" (Some "r5")
    (Session.recall_reply sess ~ordinal:5);
  Session.remember_reply sess ~ordinal:200 (reply 200);
  Alcotest.(check (option string)) "5 left the window" None
    (Session.recall_reply sess ~ordinal:5);
  Alcotest.(check (option string)) "200 held" (Some "r200")
    (Session.recall_reply sess ~ordinal:200);
  Session.remember_reply sess ~ordinal:73 (reply 73);
  Session.remember_reply sess ~ordinal:72 (reply 72);
  Alcotest.(check (option string)) "73 is the oldest in the window"
    (Some "r73")
    (Session.recall_reply sess ~ordinal:73);
  Alcotest.(check (option string)) "72 is below the window" None
    (Session.recall_reply sess ~ordinal:72);
  Session.remember_reply sess ~ordinal:201 (reply 201);
  Alcotest.(check (option string)) "73 leaves as 201 arrives" None
    (Session.recall_reply sess ~ordinal:73);
  Alcotest.(check (option string)) "never-remembered ordinal" None
    (Session.recall_reply sess ~ordinal:150);
  Alcotest.(check (option string)) "negative ordinal" None
    (Session.recall_reply sess ~ordinal:(-1));
  window_bytes ()

(* Tentpole acceptance (DESIGN.md §15): a session's replies are a pure
   function of its own waypoint sequence.  Riffle session A's waypoints
   against another session's and one-shot noise in a random arrival
   order (each stream's own order preserved, as connection readers
   guarantee) — A's replies must be byte-identical to A running alone. *)
let test_session_interleaving_independence =
  QCheck.Test.make
    ~name:"session replies independent of connection interleaving" ~count:8
    QCheck.(pair (int_range 2 8) (int_range 0 100_000))
    (fun (n, salt) ->
      let n = max 2 n in
      let targets = line_waypoints n in
      let alone =
        let sess = Session.create ~name:"A" ~chain:eval30 in
        let s = Service.create ~config:(service_config ~chunk:8 ()) () in
        Array.map strip_latency
          (Service.solve_requests s (session_requests sess targets))
      in
      let interleaved =
        let sess_a = Session.create ~name:"A" ~chain:eval30 in
        let sess_b = Session.create ~name:"B" ~chain:eval12 in
        let a = session_requests sess_a targets in
        let b =
          session_requests ~chain:eval12 sess_b
            (Array.map
               (fun t -> Vec3.make (t.Vec3.y +. 1.5) 1.0 1.0)
               (line_waypoints n))
        in
        let noise =
          Array.map (fun p -> Service.request p) (random_problems ~seed:salt n)
        in
        (* deterministic riffle keyed by the salt: pick the next element
           of stream (salt+k mod 3), preserving each stream's order *)
        let streams = [| Queue.create (); Queue.create (); Queue.create () |] in
        Array.iter (fun r -> Queue.add r streams.(0)) a;
        Array.iter (fun r -> Queue.add r streams.(1)) b;
        Array.iter (fun r -> Queue.add r streams.(2)) noise;
        let order = ref [] in
        let k = ref salt in
        while Array.exists (fun q -> not (Queue.is_empty q)) streams do
          let q = streams.(!k mod 3) in
          if not (Queue.is_empty q) then order := Queue.pop q :: !order;
          incr k
        done;
        let requests = Array.of_list (List.rev !order) in
        let s = Service.create ~config:(service_config ~chunk:8 ()) () in
        let replies = Service.solve_requests s requests in
        (* collect A's replies back in ordinal order *)
        let out = Array.make n None in
        Array.iteri
          (fun i rq ->
            match (rq.Service.session, rq.Service.ordinal) with
            | Some sess, Some o when sess == sess_a ->
              out.(o) <- Some (strip_latency replies.(i))
            | _ -> ())
          requests;
        Array.map Option.get out
      in
      interleaved = alone)

(* Acceptance: session replies byte-identical across pool sizes 1/2/4
   (the serve-live CI job asserts the same with cmp on reply dumps). *)
let test_session_determinism_pools =
  QCheck.Test.make ~name:"session replies identical across pools 1/2/4"
    ~count:4
    QCheck.(int_range 2 8)
    (fun n ->
      let n = max 2 n in
      let targets = line_waypoints n in
      let run pool =
        let sess_a = Session.create ~name:"A" ~chain:eval30 in
        let sess_b = Session.create ~name:"B" ~chain:eval12 in
        let a = session_requests sess_a targets in
        let b =
          session_requests ~chain:eval12 sess_b
            (Array.map
               (fun t -> Vec3.make (t.Vec3.y +. 1.5) 1.0 1.0)
               (line_waypoints n))
        in
        let requests =
          Array.concat
            [ Array.init (2 * n) (fun i -> if i mod 2 = 0 then a.(i / 2) else b.(i / 2)) ]
        in
        let s = Service.create ?pool ~config:(service_config ~chunk:8 ()) () in
        Array.map strip_latency (Service.solve_requests s requests)
      in
      let reference = run None in
      List.for_all
        (fun size ->
          let pool = Pool.create size in
          Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
          run (Some pool) = reference)
        [ 2; 4 ])

(* ---- Problem_file ---- *)

let test_problem_file_parses () =
  let text =
    "# demo\n\
     robot eval:12\n\
     random 3 seed=9\n\
     target 6.0,2.0,1.0\n\
     target 6.0,2.0,1.0 theta0=0,0,0,0,0,0,0,0,0,0,0,0  # warm\n\
     robot arm7\n\
     target 0.4,0.3,0.5\n"
  in
  match Problem_file.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok problems ->
    Alcotest.(check int) "six problems" 6 (Array.length problems);
    Alcotest.(check int) "eval dof" 12 (Chain.dof problems.(3).Ik.chain);
    Alcotest.(check int) "arm dof" 7 (Chain.dof problems.(5).Ik.chain);
    Alcotest.(check (float 1e-12)) "target x" 6.0 problems.(3).Ik.target.Vec3.x;
    Array.iter
      (fun p -> Alcotest.(check bool) "all valid" true (Ik.validate p = Ok ()))
      problems

let expect_error text needle =
  match Problem_file.parse text with
  | Ok _ -> Alcotest.fail (Printf.sprintf "expected error mentioning %S" needle)
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S mentions %S" msg needle)
      true
      (Astring.String.is_infix ~affix:needle msg)

let test_problem_file_errors () =
  expect_error "target 1,2,3\n" "line 1: target before any robot";
  expect_error "robot hexapod\n" "unknown robot";
  expect_error "robot eval:12\ntarget 1,2\n" "expected target x,y,z";
  expect_error "robot eval:12\ntarget 1,2,3 theta0=0,0\n" "theta0 has 2 entries";
  expect_error "robot eval:12\nrandom nope\n" "expected random <count>";
  expect_error "robot eval:12\nwarp 9\n" "unknown declaration";
  expect_error "robot eval:12\n# fine\nrandom -3\n" "line 3"

let test_problem_file_deadlines () =
  let text =
    "robot eval:12\n\
     target 6.0,2.0,1.0 deadline=0.5\n\
     random 2 seed=3 deadline=1\n\
     target 6.0,2.0,1.0\n\
     target 6.0,2.0,1.0 theta0=0,0,0,0,0,0,0,0,0,0,0,0 deadline=0\n"
  in
  match Problem_file.parse_requests text with
  | Error msg -> Alcotest.fail msg
  | Ok entries ->
    Alcotest.(check int) "five requests" 5 (Array.length entries);
    Alcotest.(check (list (option (float 1e-12))))
      "deadlines attach per line (random lines to every drawn problem)"
      [ Some 0.5; Some 1.; Some 1.; None; Some 0. ]
      (Array.to_list
         (Array.map (fun (e : Problem_file.entry) -> e.Problem_file.deadline_s) entries));
    (* parse drops the deadlines but yields the same problems *)
    (match Problem_file.parse text with
    | Error msg -> Alcotest.fail msg
    | Ok problems ->
      Alcotest.(check bool) "parse and parse_requests agree on problems" true
        (Array.for_all2
           (fun (p : Ik.problem) (e : Problem_file.entry) ->
             p.Ik.target = e.Problem_file.problem.Ik.target)
           problems entries))

let test_problem_file_deadline_errors () =
  expect_error "robot eval:12\ntarget 1,2,3 deadline=-1\n"
    "line 2: deadline must be a non-negative number";
  expect_error "robot eval:12\ntarget 1,2,3 deadline=soon\n"
    "deadline must be a non-negative number (got \"soon\")";
  expect_error "robot eval:12\nrandom 2 deadline=nan\n"
    "deadline must be a non-negative number"

let test_problem_file_random_deterministic () =
  let text = "robot eval:12\nrandom 4 seed=3\n" in
  match (Problem_file.parse text, Problem_file.parse text) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "same problems" true
      (Array.for_all2
         (fun (p : Ik.problem) (q : Ik.problem) ->
           p.Ik.target = q.Ik.target && p.Ik.theta0 = q.Ik.theta0)
         a b)
  | _ -> Alcotest.fail "parse failed"

let resolve spec =
  match Problem_file.robot_of_spec spec with
  | Ok chain -> chain
  | Error msg -> Alcotest.fail msg

(* A built-in robot resolves to one chain however its spec is spelled,
   so the caches keyed by physical chain identity hit across sessions;
   distinct robots and description files stay distinct. *)
let test_robot_specs_intern () =
  let a = resolve "eval:30" in
  Alcotest.(check bool) "EVAL:30 is the eval:30 chain" true
    (resolve " EVAL:30 " == a);
  Alcotest.(check bool) "eval:030 is the eval:30 chain" true
    (resolve "eval:030" == a);
  Alcotest.(check bool) "snake:30 is another chain" true
    (resolve "snake:30" != a);
  Alcotest.(check bool) "arm7 resolves to one chain" true
    (resolve "arm7" == resolve "arm7");
  Alcotest.(check bool) "a robot past the 4,096-link budget is built afresh"
    true
    (resolve "eval:5000" != resolve "eval:5000");
  Alcotest.(check int) "the shared chain is the factory's robot"
    (Chain.fingerprint (Robots.eval_chain ~dof:30))
    (Chain.fingerprint a);
  let path = Filename.temp_file "dadu_robot" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Chain_format.to_string (Robots.eval_chain ~dof:3)));
      let f1 = resolve ("file:" ^ path) and f2 = resolve ("file:" ^ path) in
      Alcotest.(check bool) "file: specs are parsed afresh" true (f1 != f2);
      Alcotest.(check int) "same geometry, same fingerprint"
        (Chain.fingerprint f1) (Chain.fingerprint f2))

(* A robot the journal cannot record (more than Journal.max_dof joints)
   is refused up front, a built-in one before any link is built. *)
let test_robot_spec_dof_cap () =
  let refused spec =
    match Problem_file.robot_of_spec spec with
    | Ok chain ->
      Alcotest.failf "%s resolved to a %d-DOF chain" spec (Chain.dof chain)
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names the limit" spec msg)
        true
        (Astring.String.is_infix ~affix:(string_of_int Journal.max_dof) msg)
  in
  refused "snake:65537";
  refused "planar:70000";
  refused "eval:1000000000";
  Alcotest.(check int) "the limit itself resolves" Journal.max_dof
    (Chain.dof (resolve (Printf.sprintf "snake:%d" Journal.max_dof)));
  let path = Filename.temp_file "dadu_robot" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "chain wide\n";
          for _ = 0 to Journal.max_dof do
            output_string oc "joint j revolute a=1\n"
          done);
      refused ("file:" ^ path));
  expect_error "robot snake:65537\ntarget 1,2,3\n" "line 1"

(* ---- Breaker (per-solver circuit state machine) ---- *)

module Fault = Dadu_util.Fault

let breaker_state =
  let pp fmt s =
    Format.pp_print_string fmt
      (match s with
      | Breaker.Closed -> "closed"
      | Breaker.Open -> "open"
      | Breaker.Half_open -> "half-open")
  in
  Alcotest.testable pp ( = )

let test_breaker_trips_on_threshold () =
  let b = Breaker.create { Breaker.threshold = 3; cooldown = 4 } in
  Alcotest.check breaker_state "starts closed" Breaker.Closed (Breaker.state b);
  Breaker.failure b ~now:0;
  Breaker.failure b ~now:1;
  Alcotest.check breaker_state "below threshold stays closed" Breaker.Closed
    (Breaker.state b);
  Alcotest.(check bool) "closed allows" true (Breaker.allow b ~now:2);
  Breaker.failure b ~now:2;
  Alcotest.check breaker_state "third consecutive failure trips" Breaker.Open
    (Breaker.state b);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  Alcotest.(check bool) "open blocks" false (Breaker.allow b ~now:3)

let test_breaker_success_resets_streak () =
  let b = Breaker.create { Breaker.threshold = 2; cooldown = 4 } in
  Breaker.failure b ~now:0;
  Breaker.success b;
  Breaker.failure b ~now:1;
  Alcotest.check breaker_state "non-consecutive failures don't trip" Breaker.Closed
    (Breaker.state b);
  Breaker.failure b ~now:2;
  Alcotest.check breaker_state "a consecutive pair trips" Breaker.Open
    (Breaker.state b)

let test_breaker_cooldown_and_probe () =
  let b = Breaker.create { Breaker.threshold = 1; cooldown = 5 } in
  Breaker.failure b ~now:10;
  Alcotest.(check bool) "blocked during cooldown" false (Breaker.allow b ~now:14);
  Alcotest.(check bool) "cooldown elapsed: probe allowed" true
    (Breaker.allow b ~now:15);
  Alcotest.check breaker_state "half-open while probing" Breaker.Half_open
    (Breaker.state b);
  Breaker.failure b ~now:15;
  Alcotest.check breaker_state "failed probe reopens" Breaker.Open (Breaker.state b);
  Alcotest.(check int) "second trip" 2 (Breaker.trips b);
  Alcotest.(check bool) "blocked again" false (Breaker.allow b ~now:16);
  Alcotest.(check bool) "second probe after cooldown" true (Breaker.allow b ~now:20);
  Breaker.success b;
  Alcotest.check breaker_state "probe success closes" Breaker.Closed
    (Breaker.state b);
  (* a late commit against an already-open breaker changes nothing *)
  let c = Breaker.create { Breaker.threshold = 1; cooldown = 100 } in
  Breaker.failure c ~now:0;
  Breaker.failure c ~now:1;
  Alcotest.(check int) "late failure while open is ignored" 1 (Breaker.trips c);
  Alcotest.check breaker_state "still open" Breaker.Open (Breaker.state c)

let test_breaker_rejects_bad_settings () =
  (match Breaker.create { Breaker.threshold = 0; cooldown = 4 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero threshold accepted");
  match Breaker.create { Breaker.threshold = 1; cooldown = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero cooldown accepted"

(* ---- Fallback fault containment (FK re-verification, crash isolation) ---- *)

let test_fallback_demotes_poisoned_theta () =
  (* the solver converges honestly, then the result buffer is scribbled
     with NaN: FK re-verification must demote the claim to Diverged *)
  let p = (random_problems ~seed:31 1).(0) in
  let fault =
    Fault.arm [ { Fault.site = "solver-nan"; trigger = Fault.Always; arg = 0. } ]
  in
  let o = Fallback.run ~fault ~chain:[ Fallback.Quick_ik ] ~config:(budget 2_000) p in
  Alcotest.(check bool) "demoted to Diverged" true
    (o.Fallback.result.Ik.status = Ik.Diverged);
  Alcotest.(check bool) "trail records the malfunction" true
    (o.Fallback.trail = [ (Fallback.Quick_ik, Ik.Diverged) ])

let test_fallback_demotes_lying_solver () =
  (* a tier that forges Converged/error=0 is caught by the honest FK
     check and demoted to Stalled carrying the true error *)
  let p = (random_problems ~seed:32 1).(0) in
  let fault =
    Fault.arm [ { Fault.site = "solver-lie"; trigger = Fault.Always; arg = 0. } ]
  in
  let o = Fallback.run ~fault ~chain:[ Fallback.Jt_serial ] ~config:(budget 1) p in
  let r = o.Fallback.result in
  Alcotest.(check bool) "forged convergence demoted" true (r.Ik.status = Ik.Stalled);
  Alcotest.(check (float 1e-12))
    "error field is the true FK error"
    (Ik.error_of p.Ik.chain p.Ik.target r.Ik.theta)
    r.Ik.error;
  Alcotest.(check bool) "true error above accuracy" true
    (r.Ik.error > Ik.default_config.Ik.accuracy)

let test_fallback_contains_crash () =
  (* every tier raises; the chain must still answer with a finite,
     honestly-scored stand-in instead of propagating the exception *)
  let p = (random_problems ~seed:33 1).(0) in
  let fault =
    Fault.arm [ { Fault.site = "solver-raise"; trigger = Fault.Always; arg = 0. } ]
  in
  let o =
    Fallback.run ~fault
      ~chain:[ Fallback.Quick_ik; Fallback.Dls ]
      ~config:(budget 200) p
  in
  Alcotest.(check int) "both tiers attempted" 2 o.Fallback.attempts;
  Alcotest.(check bool) "both recorded as Diverged" true
    (o.Fallback.trail
    = [ (Fallback.Quick_ik, Ik.Diverged); (Fallback.Dls, Ik.Diverged) ]);
  let r = o.Fallback.result in
  Alcotest.(check bool) "theta finite" true
    (Array.for_all Float.is_finite r.Ik.theta);
  Alcotest.(check bool) "error honestly scored" true
    (Float.is_finite r.Ik.error && r.Ik.error >= 0.)

(* ---- Service resilience (breaker skips, perturbed-seed retries) ---- *)

let test_service_breaker_skips_failing_tier () =
  (* First 1 per request fork poisons whichever tier runs first: the
     primary accumulates Diverged commits until its breaker opens, after
     which requests skip straight to the secondary *)
  let fault =
    Fault.arm ~seed:5
      [ { Fault.site = "solver-nan"; trigger = Fault.First 1; arg = 0. } ]
  in
  let config =
    {
      (service_config ~chunk:1 ()) with
      Service.fault;
      breaker = Some { Breaker.threshold = 2; cooldown = 50 };
    }
  in
  let s = Service.create ~config () in
  let replies = Service.solve_batch s (random_problems ~seed:41 8) in
  Array.iter
    (function
      | Service.Solved _ -> ()
      | _ -> Alcotest.fail "breaker path must still answer every request")
    replies;
  let skipped =
    Array.exists
      (function Service.Solved { breaker_skips; _ } -> breaker_skips > 0 | _ -> false)
      replies
  in
  Alcotest.(check bool) "some request skipped the open tier" true skipped;
  let m = Service.metrics s in
  Alcotest.(check bool) "skips counted" true (m.Metrics.breaker_skips > 0);
  Alcotest.(check bool) "divergences counted" true (m.Metrics.diverged > 0);
  (match List.assoc_opt Fallback.Quick_ik (Service.breaker_states s) with
  | Some Breaker.Open -> ()
  | Some _ -> Alcotest.fail "primary breaker should be open"
  | None -> Alcotest.fail "breaker_states missing the primary");
  (* converged replies were produced by the healthy secondary *)
  Array.iter
    (function
      | Service.Solved { result; solver; _ }
        when result.Ik.status = Ik.Converged ->
        Alcotest.(check bool) "secondary produced it" true (solver = Fallback.Dls)
      | _ -> ())
    replies

let test_service_retry_rescues_failed_chain () =
  (* a single-tier chain whose first attempt is always poisoned: only
     the perturbed-seed retry pass can (and does) rescue the request *)
  let fault =
    Fault.arm ~seed:9
      [ { Fault.site = "solver-nan"; trigger = Fault.First 1; arg = 0. } ]
  in
  let config =
    {
      (service_config ~solvers:[ Fallback.Quick_ik ] ()) with
      Service.fault;
      retries = 2;
    }
  in
  let s = Service.create ~config () in
  let n = 6 in
  let replies = Service.solve_batch s (random_problems ~seed:43 n) in
  Array.iter
    (function
      | Service.Solved { result; retries; retry_converged; trail; _ } ->
        Alcotest.(check bool) "rescued" true (result.Ik.status = Ik.Converged);
        Alcotest.(check bool) "a retry ran" true (retries >= 1);
        Alcotest.(check bool) "flagged as retry-rescued" true retry_converged;
        (match trail with
        | (Fallback.Quick_ik, Ik.Diverged) :: rest ->
          Alcotest.(check bool) "a later pass converged" true
            (List.exists (fun (_, st) -> st = Ik.Converged) rest)
        | _ -> Alcotest.fail "expected the poisoned first attempt in the trail")
      | _ -> Alcotest.fail "expected Solved")
    replies;
  let m = Service.metrics s in
  Alcotest.(check int) "all converged" n m.Metrics.converged;
  Alcotest.(check bool) "retries counted" true (m.Metrics.retries >= n);
  Alcotest.(check int) "rescues counted" n m.Metrics.retry_converged

let () =
  Alcotest.run "dadu_service"
    [
      ( "validate",
        [
          Alcotest.test_case "ok" `Quick test_validate_ok;
          Alcotest.test_case "dof mismatch" `Quick test_validate_dof_mismatch;
          Alcotest.test_case "nan target" `Quick test_validate_nan_target;
          Alcotest.test_case "nan theta0" `Quick test_validate_nan_theta0;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "positional map" `Quick test_scheduler_map_positional;
          Alcotest.test_case "exception capture" `Quick test_scheduler_captures_exceptions;
          Alcotest.test_case "chunk phase order" `Quick test_scheduler_chunk_phases;
          Alcotest.test_case "deadline expiry (fake clock)" `Quick
            test_scheduler_deadline_expiry;
          Alcotest.test_case "no deadlines ignore the clock" `Quick
            test_scheduler_no_deadline_ignores_clock;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "first solver wins" `Slow test_fallback_first_solver_wins;
          Alcotest.test_case "chains to next" `Slow test_fallback_chains_to_next;
          Alcotest.test_case "best of non-converged" `Slow
            test_fallback_keeps_best_when_none_converge;
          Alcotest.test_case "empty chain" `Quick test_fallback_empty_chain;
          Alcotest.test_case "chain parsing" `Quick test_fallback_chain_parsing;
          qcheck test_fallback_never_lies;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter sums" `Quick test_metrics_sums;
          Alcotest.test_case "render" `Quick test_metrics_render;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips on threshold" `Quick test_breaker_trips_on_threshold;
          Alcotest.test_case "success resets streak" `Quick
            test_breaker_success_resets_streak;
          Alcotest.test_case "cooldown and half-open probe" `Quick
            test_breaker_cooldown_and_probe;
          Alcotest.test_case "bad settings rejected" `Quick
            test_breaker_rejects_bad_settings;
        ] );
      ( "fault-containment",
        [
          Alcotest.test_case "poisoned theta demoted" `Slow
            test_fallback_demotes_poisoned_theta;
          Alcotest.test_case "lying solver demoted" `Quick
            test_fallback_demotes_lying_solver;
          Alcotest.test_case "crash contained" `Quick test_fallback_contains_crash;
          Alcotest.test_case "breaker skips failing tier" `Slow
            test_service_breaker_skips_failing_tier;
          Alcotest.test_case "retry rescues failed chain" `Slow
            test_service_retry_rescues_failed_chain;
        ] );
      ( "service",
        [
          Alcotest.test_case "determinism across pool sizes" `Slow
            test_service_determinism_across_pool_sizes;
          qcheck test_oneshot_replies_independent;
          Alcotest.test_case "counter consistency" `Slow test_service_counter_consistency;
          Alcotest.test_case "fallback counted" `Slow test_service_fallback_counted;
          Alcotest.test_case "empty batch" `Quick test_service_empty_batch;
          Alcotest.test_case "invalid config" `Quick test_service_invalid_config;
          qcheck test_service_counters_property;
          Alcotest.test_case "all requests expired" `Slow test_service_all_expired;
          Alcotest.test_case "mixed deadlines" `Slow test_service_mixed_deadlines;
          qcheck test_service_parallel_determinism;
          Alcotest.test_case "trace spans" `Slow test_service_trace_spans;
          Alcotest.test_case "no cross-chain warm start" `Slow
            test_service_no_cross_chain_seed;
          Alcotest.test_case "seed-candidates 1 is classic path" `Slow
            test_seed_candidates_one_is_classic_path;
          qcheck test_seeded_determinism;
          Alcotest.test_case "seeded metrics accounting" `Slow
            test_seeded_metrics_accounting;
          qcheck test_prepare_pool_identity;
          Alcotest.test_case "phase breakdown records" `Quick
            test_phase_breakdown_records;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "warm waypoints <= 4 iters at 30 DOF" `Slow
            test_session_warm_iteration_pin;
          Alcotest.test_case "intra-wave ordering (cut)" `Slow
            test_session_intra_wave_ordering;
          Alcotest.test_case "chain mismatch serves cold" `Slow
            test_session_chain_mismatch_serves_cold;
          Alcotest.test_case "reply ring is a 128-ordinal window" `Quick
            test_session_reply_window;
          qcheck test_session_interleaving_independence;
          qcheck test_session_determinism_pools;
        ] );
      ( "problem-file",
        [
          Alcotest.test_case "parses" `Quick test_problem_file_parses;
          Alcotest.test_case "errors carry line numbers" `Quick test_problem_file_errors;
          Alcotest.test_case "random deterministic" `Quick
            test_problem_file_random_deterministic;
          Alcotest.test_case "deadlines" `Quick test_problem_file_deadlines;
          Alcotest.test_case "deadline errors" `Quick test_problem_file_deadline_errors;
          Alcotest.test_case "built-in robots intern" `Quick test_robot_specs_intern;
          Alcotest.test_case "robot DOF capped at the journal's" `Quick
            test_robot_spec_dof_cap;
        ] );
    ]
