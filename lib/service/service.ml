open Dadu_core
open Dadu_kinematics
module Trace = Dadu_util.Trace
module Fault = Dadu_util.Fault
module Rng = Dadu_util.Rng

type config = {
  solvers : Fallback.kind list;
  speculations : int;
  accuracy : float;
  max_iterations : int;
  time_budget_s : float option;
  chunk : int;
  guard : Ik.guard option;
  fault : Fault.t;
  breaker : Breaker.settings option;
  retries : int;
  retry_scale : float;
  seed_library : Posture_library.t option;
  seed_candidates : int;
}

let default_config =
  {
    solvers = [ Fallback.Quick_ik; Fallback.Dls; Fallback.Sdls ];
    speculations = 64;
    accuracy = 1e-2;
    max_iterations = 2_000;
    time_budget_s = None;
    chunk = 64;
    guard = None;
    fault = Fault.disabled;
    breaker = None;
    retries = 0;
    retry_scale = 0.1;
    seed_library = None;
    seed_candidates = 1;
  }

type t = {
  config : config;
  ik_config : Ik.config;
  scheduler : Scheduler.t;
  pool : Dadu_util.Domain_pool.t option;
      (* the scheduler's pool, lent to the prepare phase's wave-fused
         seed scoring ([Seed_select.choose_wave]) *)
  metrics : Metrics.t;
  breakers : Breaker.t array option;
      (* one per chain tier, same order as [config.solvers]; mutated only
         in the scheduler's serial phases *)
  seed_select : Seed_select.t;
      (* speculative seed-selection scratch; touched only in the serial
         prepare phase *)
}

let create ?pool ?(config = default_config) () =
  if config.solvers = [] then invalid_arg "Service.create: empty solver chain";
  if config.speculations <= 0 then
    invalid_arg "Service.create: speculations must be positive";
  if config.max_iterations <= 0 then
    invalid_arg "Service.create: max_iterations must be positive";
  if not (config.accuracy > 0.) then
    invalid_arg "Service.create: accuracy must be positive";
  if config.retries < 0 then
    invalid_arg "Service.create: retries must be non-negative";
  if not (config.retry_scale >= 0. && Float.is_finite config.retry_scale) then
    invalid_arg "Service.create: retry_scale must be finite and non-negative";
  if config.seed_candidates < 1 then
    invalid_arg "Service.create: seed_candidates must be at least 1";
  let ik_config =
    {
      Ik.accuracy = config.accuracy;
      max_iterations = config.max_iterations;
      stall_iterations = None;
      guard = config.guard;
    }
  in
  {
    config;
    ik_config;
    scheduler = Scheduler.create ?pool ~chunk:config.chunk ();
    pool;
    metrics = Metrics.create ();
    breakers =
      Option.map
        (fun settings ->
          Array.of_list (List.map (fun _ -> Breaker.create settings) config.solvers))
        config.breaker;
    seed_select = Seed_select.create ();
  }

let config t = t.config

let breaker_states t =
  match t.breakers with
  | None -> []
  | Some bs ->
    List.mapi (fun j kind -> (kind, Breaker.state bs.(j))) t.config.solvers

type request = {
  problem : Ik.problem;
  deadline_s : float option;
  session : Session.t option;
  ordinal : int option;
}

let request ?deadline_s ?session ?ordinal problem =
  (match deadline_s with
  | Some d when not (d >= 0.) ->
    invalid_arg "Service.request: deadline_s must be non-negative"
  | Some _ | None -> ());
  (match ordinal with
  | Some o when o < 0 ->
    invalid_arg "Service.request: ordinal must be non-negative"
  | Some _ | None -> ());
  { problem; deadline_s; session; ordinal }

(* The stable ordinal: the session waypoint sequence number when the
   caller assigned one, else the batch index.  It keys every per-request
   noise stream (speculative perturbations, retry jitter), so a session
   waypoint's reply is independent of where it lands in a batch. *)
let req_ordinal (d : Scheduler.dispatch) rq =
  match rq.ordinal with Some o -> o | None -> d.Scheduler.index

type reply =
  | Solved of {
      result : Ik.result;
      solver : Fallback.kind;
      fallbacks : int;
      cache_hit : bool;
      session_hit : bool;
      deadline_exceeded : bool;
      breaker_skips : int;
      retries : int;
      retry_converged : bool;
      trail : (Fallback.kind * Ik.status) list;
      latency_s : float;
    }
  | Rejected of Ik.invalid
  | Faulted of string

(* what the serial prepare phase hands to the parallel wave *)
type prepared =
  | Dispatch of {
      index : int;
      ordinal : int; (* stable noise key, see [req_ordinal] *)
      problem : Ik.problem;
      session_hit : bool;
      expired : bool;
      solve_budget_s : float option;
      chain : Fallback.kind list;
      breaker_skips : int;
      fault : Fault.t;
          (* the request's fault fork, derived at prepare time so the
             whole dispatch — fault stream included — is part of the
             frozen wave snapshot *)
    }
  | Skip of Ik.invalid

let min_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Float.min a b)

(* Breaker reads happen in the serial phase, keyed on the request
   ordinal — the open/half-open decisions are a pure function of the
   committed request sequence, never of the pool size.  If every tier is
   open the full chain runs anyway: serving must answer and an all-open
   chain means the problem is the traffic, not one solver. *)
let breaker_chain t (d : Scheduler.dispatch) =
  match t.breakers with
  | None -> (t.config.solvers, 0)
  | Some bs ->
    let allowed =
      List.filteri
        (fun j _ -> Breaker.allow bs.(j) ~now:d.Scheduler.index)
        t.config.solvers
    in
    if allowed = [] then (t.config.solvers, 0)
    else (allowed, List.length t.config.solvers - List.length allowed)

(* Time left before this request's deadline or the batch budget, at
   prepare time; the solve phase hands it to the fallback chain so a
   straggler stops falling back once its deadline passes.  All [None]
   (the default) keeps the batch deterministic. *)
let solve_budget t ?budget_s (d : Scheduler.dispatch) (rq : request) =
  let remaining limit =
    match limit with
    | None -> None
    | Some l -> Some (Float.max 0. (l -. d.Scheduler.elapsed_s))
  in
  min_opt t.config.time_budget_s
    (min_opt (remaining rq.deadline_s) (remaining budget_s))

let mk_dispatch t ?budget_s (d : Scheduler.dispatch) (rq : request)
    ~chain ~breaker_skips ?(session_hit = false) problem =
  Dispatch
    {
      index = d.Scheduler.index;
      ordinal = req_ordinal d rq;
      problem;
      session_hit;
      expired = d.Scheduler.expired;
      solve_budget_s = solve_budget t ?budget_s d rq;
      chain;
      breaker_skips;
      fault = Fault.fork t.config.fault d.Scheduler.index;
    }

(* ---- prepare ----------------------------------------------------------

   The prepare phase of one scheduler wave, in three passes; a single
   request is a wave of one.

   Pass A (serial, ordinal order) snapshots every read of mutable serial
   state — validation, breaker gating, the session slot, the
   posture-library NN query (its ring scratch mutates), the fault fork,
   and the dispatch's frozen clock/expiry — into an immutable per-request
   record.  Nothing commits mid-wave, so the frozen values are exactly
   what each request would read at any point of the phase.

   Pass B hands the frozen specs to {!Seed_select.choose_wave}: candidate
   assembly fans out per request and the R×S candidate scorings collapse
   into chunked sweeps of the wave-fused SoA kernel on the pool (which is
   idle during prepare).  Replies stay byte-identical across pool sizes
   by the selector's bit-parity contract.

   Pass C (serial, ordinal order) seals the wave: seed metrics and trace
   spans in ordinal order, then the dispatch records. *)

type snap =
  | Snap_done of prepared (* resolved without speculative selection *)
  | Snap_spec of {
      d : Scheduler.dispatch;
      rq : request;
      spec : Seed_select.spec;
      library_hit : bool;
      session_hit : bool;
      chain : Fallback.kind list;
      breaker_skips : int;
    }

(* pass A for one dispatch *)
let snapshot t ?budget_s requests (d : Scheduler.dispatch) =
  let rq = requests.(d.Scheduler.index) in
  let p = rq.problem in
  match Ik.validate p with
  | Error invalid -> Snap_done (Skip invalid)
  | Ok () ->
    let chain, breaker_skips = breaker_chain t d in
    let lookup = mk_dispatch t ?budget_s d rq ~chain ~breaker_skips in
    (* the temporal warm start: the session's previous converged
       solution, scoped to the trajectory, so a session's replies never
       depend on other traffic (DESIGN.md §15).  The wave cut guarantees
       no earlier request of this wave writes the slot. *)
    let session_seed =
      match rq.session with
      | None -> None
      | Some sess -> Session.seed sess ~chain_fp:(Chain.fingerprint p.Ik.chain)
    in
    if t.config.seed_candidates = 1 then
      (* non-speculative path: a one-shot starts from its own θ₀, a
         session waypoint from its slot once clamped to this chain's
         limits *)
      match session_seed with
      | Some seed ->
        let theta0 = Chain.clamp_config p.Ik.chain seed in
        Snap_done (lookup ~session_hit:true { p with Ik.theta0 })
      | None -> Snap_done (lookup p)
    else begin
      let library =
        match t.config.seed_library with
        | Some lib when Posture_library.matches lib p.Ik.chain -> Some lib
        | Some _ | None -> None
      in
      let target = p.Ik.target in
      (* the NN query runs here, serially: its scratch mutates.
         Querying even when the candidate budget is already full is
         harmless — the selector simply won't use the row. *)
      let library_index =
        match library with
        | Some lib ->
          Posture_library.nearest_index lib ~x:target.Dadu_linalg.Vec3.x
            ~y:target.Dadu_linalg.Vec3.y ~z:target.Dadu_linalg.Vec3.z
        | None -> -1
      in
      let library_hit =
        match library with
        | Some lib -> Posture_library.size lib > 0
        | None -> false
      in
      Snap_spec
        {
          d;
          rq;
          spec =
            {
              Seed_select.ordinal = req_ordinal d rq;
              chain = p.Ik.chain;
              tx = target.Dadu_linalg.Vec3.x;
              ty = target.Dadu_linalg.Vec3.y;
              tz = target.Dadu_linalg.Vec3.z;
              theta0 = p.Ik.theta0;
              session_seed;
              library;
              library_index;
              candidates = t.config.seed_candidates;
              scale = t.config.retry_scale;
              dst = Array.make (Chain.dof p.Ik.chain) 0.;
            };
          library_hit;
          session_hit = session_seed <> None;
          chain;
          breaker_skips;
        }
    end

let prepare t ?budget_s ?trace requests (ds : Scheduler.dispatch array) =
  let wave_start = Trace.now_s () in
  let snaps = Array.map (snapshot t ?budget_s requests) ds in
  (* pass B: parallel assembly + wave-fused scoring over the frozen specs *)
  let specs =
    Array.of_list
      (Array.fold_right
         (fun snap acc ->
           match snap with
           | Snap_spec { spec; _ } -> spec :: acc
           | Snap_done _ -> acc)
         snaps [])
  in
  let select_start = Trace.now_s () in
  let sources = Seed_select.choose_wave t.seed_select ?pool:t.pool specs in
  let select_dur = Trace.now_s () -. select_start in
  (* pass C: serial seal in ordinal order *)
  let spec_at = ref 0 in
  let out =
    Array.map
      (function
        | Snap_done prepared -> prepared
        | Snap_spec
            {
              d;
              rq;
              spec;
              library_hit;
              session_hit;
              chain;
              breaker_skips;
            } ->
          let source = sources.(!spec_at) in
          incr spec_at;
          Metrics.record_seed t.metrics ~library_hit source;
          (match trace with
          | None -> ()
          | Some tr ->
            (* selection is not individually timed: the span carries the
               wave's fused-selection bracket, the winner attr stays per
               request *)
            Trace.record tr ~request:d.Scheduler.index ~phase:"seed-select"
              ~attrs:[ ("winner", Seed_select.source_name source) ]
              ~start_s:select_start ~dur_s:select_dur ());
          mk_dispatch t ?budget_s d rq ~chain ~breaker_skips ~session_hit
            { rq.problem with Ik.theta0 = spec.Seed_select.dst })
      snaps
  in
  (match trace with
  | None -> ()
  | Some tr ->
    let dur_s = Trace.now_s () -. wave_start in
    Array.iter
      (fun (d : Scheduler.dispatch) ->
        Trace.record tr ~request:d.Scheduler.index ~phase:"prepare"
          ~start_s:wave_start ~dur_s ())
      ds);
  out

(* Perturbed-seed retry (the IKSel observation: a failed chain often
   succeeds from a jittered start).  The noise is seeded from the
   request's stable ordinal and retry number only, so retry [r] of
   ordinal [o] perturbs identically whatever the pool size, which domain
   runs it, or — for session waypoints — which batch it lands in. *)
let perturbed (p : Ik.problem) ~ordinal ~retry ~scale =
  let rng = Rng.create (Hashtbl.hash (0x7e72, ordinal, retry)) in
  let theta0 =
    Chain.clamp_config p.Ik.chain
      (Array.map (fun th -> th +. (scale *. Rng.gaussian rng)) p.Ik.theta0)
  in
  { p with Ik.theta0 }

let work t ?trace prep =
  match prep with
  | Skip invalid -> Rejected invalid
  | Dispatch
      {
        index;
        ordinal;
        problem;
        session_hit;
        expired;
        solve_budget_s;
        chain;
        breaker_skips;
        fault;
      } ->
    let t0 = Trace.now_s () in
    let attempt_hook =
      match trace with
      | None -> None
      | Some tr ->
        Some
          (fun kind ~start_s ~dur_s (r : Ik.result) ->
            Trace.record tr ~request:index ~phase:"fallback-tier"
              ~attrs:
                [
                  ("solver", Fallback.name kind);
                  ( "status",
                    Format.asprintf "%a" Ik.pp_status r.Ik.status );
                ]
              ~start_s ~dur_s ())
    in
    (* past-deadline requests short-circuit to the cheapest tier: the
       chain's first solver (chains are ordered cheap-first), alone, so
       the reply still carries a best-effort answer at minimum cost *)
    let chain = if expired then [ List.hd chain ] else chain in
    let solve p =
      Fallback.run ~speculations:t.config.speculations
        ?time_budget_s:solve_budget_s ?attempt_hook ~fault ~chain
        ~config:t.ik_config p
    in
    let first = solve problem in
    (* retry tier: re-enter the exhausted chain from perturbed seeds,
       keeping the best outcome; expired requests never retry (the whole
       point was minimum cost) *)
    let rec retry_loop best retry =
      if
        best.Fallback.result.Ik.status = Ik.Converged
        || retry > t.config.retries || expired
      then (best, retry - 1)
      else begin
        let rp = perturbed problem ~ordinal ~retry ~scale:t.config.retry_scale in
        let start_s = Trace.now_s () in
        let o = solve rp in
        (match trace with
        | None -> ()
        | Some tr ->
          Trace.record tr ~request:index ~phase:"retry"
            ~attrs:
              [
                ("attempt", string_of_int retry);
                ( "status",
                  Format.asprintf "%a" Ik.pp_status o.Fallback.result.Ik.status
                );
              ]
            ~start_s ~dur_s:(Trace.now_s () -. start_s) ());
        (* keep the converged (else lowest-error) outcome; the merged
           trail and attempt count cover every pass so breakers and
           metrics see all the evidence *)
        let keep =
          if
            o.Fallback.result.Ik.status = Ik.Converged
            || o.Fallback.result.Ik.error < best.Fallback.result.Ik.error
          then o
          else best
        in
        let attempts = best.Fallback.attempts + o.Fallback.attempts in
        let best =
          {
            keep with
            Fallback.trail = best.Fallback.trail @ o.Fallback.trail;
            attempts;
            fallbacks = attempts - 1;
          }
        in
        retry_loop best (retry + 1)
      end
    in
    let outcome, retries_used =
      if t.config.retries = 0 then (first, 0) else retry_loop first 1
    in
    let retries_used = Stdlib.max 0 retries_used in
    let retry_converged =
      retries_used > 0 && outcome.Fallback.result.Ik.status = Ik.Converged
      && first.Fallback.result.Ik.status <> Ik.Converged
    in
    let latency_s = Trace.now_s () -. t0 in
    (match trace with
    | None -> ()
    | Some tr ->
      Trace.record tr ~request:index ~phase:"solve"
        ~attrs:
          [
            ("solver", Fallback.name outcome.Fallback.solver);
            ("fallbacks", string_of_int outcome.Fallback.fallbacks);
            ("deadline_exceeded", string_of_bool expired);
          ]
        ~start_s:t0 ~dur_s:latency_s ());
    Solved
      {
        result = outcome.Fallback.result;
        solver = outcome.Fallback.solver;
        fallbacks = outcome.Fallback.fallbacks;
        cache_hit = false;
        session_hit;
        deadline_exceeded = expired;
        breaker_skips;
        retries = retries_used;
        retry_converged;
        trail = outcome.Fallback.trail;
        latency_s;
      }

let commit t ?trace requests i result =
  Trace.span trace ~request:i ~phase:"commit" @@ fun () ->
  (* breaker writes happen here, serially and in input order: the
     evidence stream feeding the state machines is the committed trail
     sequence, identical across pool sizes.  Convergence closes; a
     Diverged attempt (guard trip, crash containment, poisoned θ) counts
     toward the trip threshold; an honest Max_iterations/Stalled miss is
     neutral — a hard workload must not amputate the chain. *)
  (match (t.breakers, result) with
  | Some bs, Ok (Solved { trail; _ }) ->
    List.iter
      (fun (kind, status) ->
        List.iteri
          (fun j k ->
            if k = kind then
              match status with
              | Ik.Converged -> Breaker.success bs.(j)
              | Ik.Diverged -> Breaker.failure bs.(j) ~now:i
              | Ik.Max_iterations | Ik.Stalled -> ())
          t.config.solvers)
      trail
  | _ -> ());
  match result with
  | Error exn ->
    Metrics.record t.metrics (Metrics.Faulted (Printexc.to_string exn))
  | Ok (Rejected invalid) -> Metrics.record t.metrics (Metrics.Rejected invalid)
  | Ok (Faulted msg) -> Metrics.record t.metrics (Metrics.Faulted msg)
  | Ok
      (Solved
        {
          result;
          fallbacks;
          session_hit;
          deadline_exceeded;
          breaker_skips;
          retries;
          retry_converged;
          latency_s;
          _;
        }) ->
    let converged = result.Ik.status = Ik.Converged in
    let rq = requests.(i) in
    (* a converged waypoint feeds the next waypoint of the same
       trajectory and nothing else, keeping session replies independent
       of other traffic (DESIGN.md §15); one-shots leave no trace *)
    (match rq.session with
    | Some sess when converged ->
      Session.store sess
        ~chain_fp:(Chain.fingerprint rq.problem.Ik.chain)
        result.Ik.theta
    | Some _ | None -> ());
    Metrics.record t.metrics
      (Metrics.Solved
         {
           converged;
           diverged = result.Ik.status = Ik.Diverged;
           fallbacks;
           session = rq.session <> None;
           session_hit;
           deadline_exceeded;
           breaker_skips;
           retries;
           retry_converged;
           latency_s;
           iterations = result.Ik.iterations;
         })

let solve_requests ?budget_s ?trace t requests =
  (* Two waypoints of one session must never share a wave: the later
     one's prepare has to observe the earlier one's serial commit (the
     warm-start slot).  The cut is queried serially in input order and
     depends only on the request array, so wave shapes — and replies —
     stay a pure function of the batch.  Skipped entirely for
     session-free batches: wave shapes there are exactly the classic
     fixed chunks. *)
  let cut =
    if Array.exists (fun rq -> rq.session <> None) requests then
      Some
        (fun ~base i ->
          match requests.(i).session with
          | None -> false
          | Some s ->
            let dup = ref false in
            let j = ref base in
            while (not !dup) && !j < i do
              (match requests.(!j).session with
              | Some s' when s' == s -> dup := true
              | Some _ | None -> ());
              incr j
            done;
            !dup)
    else None
  in
  (* phase hook: the wave-phase wall-time breakdown (metrics always;
     trace spans under a sentinel request -1 so per-request span pins
     stay closed over request ids) *)
  let phase_done phase ~base ~len ~start_s ~dur_s =
    let mphase =
      match phase with
      | Scheduler.Prepare -> Metrics.Prepare
      | Scheduler.Work -> Metrics.Work
      | Scheduler.Commit -> Metrics.Commit
    in
    Metrics.record_phase t.metrics mphase dur_s;
    match trace with
    | None -> ()
    | Some tr ->
      Trace.record tr ~request:(-1)
        ~phase:("phase:" ^ Metrics.phase_name mphase)
        ~attrs:
          [ ("base", string_of_int base); ("len", string_of_int len) ]
        ~start_s ~dur_s ()
  in
  Scheduler.map_deadlined t.scheduler ?budget_s
    ~deadline_s:(fun i -> requests.(i).deadline_s)
    ?cut
    ~prepare:(prepare t ?budget_s ?trace requests)
    ~phase_done ~work:(work t ?trace)
    ~commit:(commit t ?trace requests)
    (Array.length requests)
  |> Array.map (function
       | Ok reply -> reply
       | Error exn -> Faulted (Printexc.to_string exn))

let solve_batch t problems =
  solve_requests t
    (Array.map
       (fun problem ->
         { problem; deadline_s = None; session = None; ordinal = None })
       problems)

let metrics t = Metrics.snapshot t.metrics

let render_metrics t = Metrics.render (metrics t)

let reset_metrics t = Metrics.reset t.metrics
