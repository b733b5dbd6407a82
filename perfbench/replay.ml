(* The traced run: the live run's generated requests replayed in process
   through each layer's public functions, in the batch shapes the
   workload's window or arrival schedule produces.  The benchmark records
   a span around every call it makes into a layer; the Service's own
   [?trace] spans nest under the span of the call that made them.  Self
   time is a span minus its children.  Nothing here is timed with the
   live server running. *)

open Dadu_core
open Dadu_kinematics
module Svc = Dadu_service.Service
module Pf = Dadu_service.Problem_file
module Journal = Dadu_service.Journal
module Metrics = Dadu_service.Metrics
module Library = Dadu_service.Posture_library
module Session = Dadu_service.Session
module Trace = Dadu_util.Trace
module Json = Dadu_util.Json

(* replay sizes: warm-up requests first, as live, then a fixed prefix of
   the timed requests, so counted numbers repeat for a seed *)
let track_rounds = 40
let track_keep = Gen.track_warmup + track_rounds
let plan_requests = 320

(* ---- spans ------------------------------------------------------------- *)

type span = {
  sid : int;
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** -1: root *)
  rid : int;  (** request id, -1: none *)
}

type recorder = { mutable spans : span list; mutable next : int }

let recorder () = { spans = []; next = 0 }

let add_span r ~name ~parent ~rid ~start ~stop =
  let s = { sid = r.next; name; start; stop; parent; rid } in
  r.next <- r.next + 1;
  r.spans <- s :: r.spans;
  s

let open_span r ~name ~parent ~rid = add_span r ~name ~parent ~rid ~start:(Trace.now_s ()) ~stop:nan

let close_span s = s.stop <- Trace.now_s ()

let within r ~name ~parent ~rid f =
  let s = open_span r ~name ~parent ~rid in
  let x = f s in
  close_span s;
  x

let dur s = s.stop -. s.start

(* self time: the span minus its children (children of one span never
   overlap: the replay is single-threaded and the service runs without a
   pool) *)
let self_times r =
  let child = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add child s.parent (dur s)) r.spans;
  fun s -> dur s -. List.fold_left ( +. ) 0. (Hashtbl.find_all child s.sid)

let write_spans r path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,\"request\":%d}\n"
            s.sid s.name s.start s.stop s.parent s.rid)
        (List.rev r.spans))

(* ---- the replayed requests -------------------------------------------- *)

type item = {
  id : int;
  payload : string;  (** the exact frame payload the live client sent *)
  request : Svc.request;
  session : string option;
  ordinal : int;
}

type plan = {
  warm : item array array;  (** untimed batches, as the live set-up *)
  timed : item array array;  (** the batches of the timed prefix *)
  sessions : (string * string * Chain.t) list;  (** name, robot spec, chain *)
}

let clamped_zero chain = Chain.clamp_config chain (Array.make (Chain.dof chain) 0.)

let solve_item ~chain ~robot ~id target =
  {
    id;
    payload = Gen.solve_payload ~id ~robot target;
    request = Svc.request ~ordinal:id (Ik.problem ~chain ~target ~theta0:(clamped_zero chain));
    session = None;
    ordinal = id;
  }

let chunks n xs =
  let xs = Array.of_list xs in
  Array.init ((Array.length xs + n - 1) / n) (fun b ->
      Array.sub xs (b * n) (min n (Array.length xs - (b * n))))

(* Fresh requests each call: sessions carry state, so every pass gets
   its own. *)
let build ~workload ~seed =
  match workload with
  | "track" ->
    let chain = Robots.eval_chain ~dof:Gen.track_dof in
    let centres = Gen.track_sessions_of seed in
    let n = Array.length centres in
    let sessions = Array.init n (fun i -> Session.create ~name:(Gen.session_name i) ~chain) in
    let round k =
      Array.init n (fun i ->
          let target = Gen.waypoint centres.(i) k in
          let id = Gen.track_id ~session:i ~k in
          let name = Gen.session_name i in
          {
            id;
            payload = Gen.waypoint_payload ~id ~session:name ~seq:k target;
            request =
              Svc.request ~session:sessions.(i) ~ordinal:k
                (Ik.problem ~chain ~target ~theta0:(clamped_zero chain));
            session = Some name;
            ordinal = k;
          })
    in
    {
      warm = Array.init Gen.track_warmup round;
      timed = Array.init track_rounds (fun r -> round (Gen.track_warmup + r));
      sessions = List.init n (fun i -> (Gen.session_name i, Gen.track_robot, chain));
    }
  | "plan" ->
    let chain = Robots.eval_chain ~dof:Gen.plan_dof in
    let robot = Gen.plan_robot in
    let target = Gen.plan_targets seed in
    {
      warm =
        chunks Gen.plan_window
          (List.mapi (fun i t -> solve_item ~chain ~robot ~id:(1_000_000 + i) t)
             (Array.to_list (Lazy.force Gen.plan_warmup_targets)));
      timed =
        chunks Gen.plan_window
          (List.init plan_requests (fun i -> solve_item ~chain ~robot ~id:i (target i)));
      sessions = [];
    }
  | w -> invalid_arg ("unknown workload " ^ w)

(* the service exactly as `dadu serve` configures it with default flags
   (plus the plan library) *)
let service ~library =
  Svc.create
    ~config:
      {
        Svc.default_config with
        Svc.max_iterations = 10_000;
        seed_library = library;
        seed_candidates = (if library = None then 1 else Gen.plan_candidates);
      }
    ()

(* the server's reply payload for one job (lib/service/server.ml) *)
let reply_payload item (reply : Svc.reply) =
  match reply with
  | Svc.Rejected invalid ->
    Printf.sprintf "{\"reply\":\"rejected\",\"id\":%d,\"reason\":%S}" item.id
      (Format.asprintf "%a" Ik.pp_invalid invalid)
  | Svc.Faulted msg -> Printf.sprintf "{\"reply\":\"faulted\",\"id\":%d,\"reason\":%S}" item.id msg
  | Svc.Solved { result; solver; fallbacks; cache_hit; session_hit; deadline_exceeded; retries; _ } ->
    let spart =
      match item.session with
      | None -> ""
      | Some s -> Printf.sprintf "\"session\":%S,\"ordinal\":%d," s item.ordinal
    in
    Printf.sprintf
      "{\"reply\":\"solved\",\"id\":%d,%s\"status\":%S,\"solver\":%S,\"iterations\":%d,\"error\":%.17g,\"fallbacks\":%d,\"retries\":%d,\"cache_hit\":%b,\"session_hit\":%b,\"deadline_exceeded\":%b,\"theta\":[%s]}"
      item.id spart
      (Format.asprintf "%a" Ik.pp_status result.Ik.status)
      (Dadu_service.Fallback.name solver)
      result.Ik.iterations result.Ik.error fallbacks retries cache_hit session_hit
      deadline_exceeded
      (String.concat "," (List.map (Printf.sprintf "%.17g") (Array.to_list result.Ik.theta)))

let frame_bytes payload = String.length (string_of_int (String.length payload)) + String.length payload + 2

let load_library path =
  match Library.load path with
  | Ok lib -> lib
  | Error e -> failwith (Format.asprintf "%s: %a" path Library.pp_load_error e)

(* ---- one pass ---------------------------------------------------------- *)

(* What a pass leaves: every counted number, plus its spans. *)
type pass = {
  service_s : float;  (** Service.solve_requests, timed batches *)
  service_cpu_s : float;  (** the same calls' process CPU time *)
  requests : int;  (** timed requests *)
  iterations : int;
  link_evals : float;
  fallbacks : int;
  req_bytes : int;
  reply_bytes : int;
  journal_records : int;
  journal_bytes : int;  (** the timed commits' share of the journal *)
  before : Metrics.snapshot;  (** after the warm-up *)
  after : Metrics.snapshot;
  solve_ms : (int * float) list;  (** request id, Service [solve] span *)
  replies : (int * string) list;  (** timed request id, reply bytes *)
  digest : string;  (** of every request payload *)
  rec_ : recorder;
}

let pass ~workload ~seed ~library ~traced ~dir =
  let plan = build ~workload ~seed in
  let svc = service ~library in
  let r = recorder () in
  let jpath = Filename.concat dir (Printf.sprintf "replay-%b.journal" traced) in
  (try Sys.remove jpath with Sys_error _ -> ());
  let journal =
    match Journal.open_ jpath with Ok (j, _, _) -> j | Error _ -> failwith "scratch journal"
  in
  List.iter
    (fun (session, robot, chain) ->
      Journal.append journal
        (Journal.Opened { session; robot; chain_fp = Chain.fingerprint chain; dof = Chain.dof chain }))
    plan.sessions;
  let pr, pw = Unix.pipe ~cloexec:true () in
  let oc = Unix.out_channel_of_descr pw in
  let fr = Pf.frame_reader pr in
  let through_pipe payload =
    Pf.write_frame oc payload;
    flush oc;
    match Pf.read_frame_fd fr with
    | Pf.Frame p when p = payload -> ()
    | _ -> failwith "frame did not round-trip"
  in
  let digest = Buffer.create 4096 in
  let solve_ms = ref [] and replies = ref [] in
  let service_s = ref 0. and service_cpu_s = ref 0. and requests = ref 0 and iterations = ref 0 and link_evals = ref 0.
  and fallbacks = ref 0 and req_bytes = ref 0 and reply_bytes = ref 0 in
  let journal_size () = (Unix.stat jpath).Unix.st_size in
  let run_batch ~timed batch =
    within r ~name:"batch" ~parent:(-1) ~rid:(-1) @@ fun b ->
    (* the server parses each request as its frame arrives *)
    Array.iter
      (fun it ->
        Buffer.add_string digest it.payload;
        within r ~name:"parse" ~parent:b.sid ~rid:it.id (fun _ ->
            match Json.of_string it.payload with
            | Ok _ -> ()
            | Error e -> failwith e))
      batch;
    let requests_ = Array.map (fun it -> it.request) batch in
    let trace = if traced then Some (Trace.create ()) else None in
    let epoch = Trace.now_s () in
    let cpu0 = Live.client_cpu_s () in
    let s = open_span r ~name:"service" ~parent:b.sid ~rid:(-1) in
    let replies_ = Svc.solve_requests ?trace svc requests_ in
    close_span s;
    if timed then begin
      service_s := !service_s +. dur s;
      service_cpu_s := !service_cpu_s +. (Live.client_cpu_s () -. cpu0)
    end;
    (* nest the Service's own spans under this call, keyed by request id,
       each under the innermost span that contains it: a wave's
       [phase:*] span holds its requests' spans, [prepare] holds
       [seed-select], [solve] holds [fallback-tier] *)
    Option.iter
      (fun tr ->
        let by_start =
          List.sort
            (fun (a : Trace.span) (b : Trace.span) ->
              compare (a.Trace.start_s, -.a.Trace.dur_s) (b.Trace.start_s, -.b.Trace.dur_s))
            (Trace.spans tr)
        in
        let open_ = ref [ s ] in
        List.iter
          (fun (sp : Trace.span) ->
            let rid = if sp.Trace.request >= 0 then batch.(sp.Trace.request).id else -1 in
            let start = epoch +. sp.Trace.start_s in
            let stop = start +. sp.Trace.dur_s in
            let rec enclosing = function
              | [ root ] -> [ root ]
              | top :: rest -> if top.stop +. 1e-9 >= stop then top :: rest else enclosing rest
              | [] -> [ s ]
            in
            open_ := enclosing !open_;
            let c = add_span r ~name:sp.Trace.phase ~parent:(List.hd !open_).sid ~rid ~start ~stop in
            open_ := c :: !open_;
            if timed && sp.Trace.phase = "solve" && rid >= 0 then
              solve_ms := (rid, 1e3 *. sp.Trace.dur_s) :: !solve_ms)
          by_start)
      trace;
    Array.iteri
      (fun i it ->
        let reply = replies_.(i) in
        let bytes = reply_payload it reply in
        (* the server journals session commits only; one-shot replies go
           to the scratch journal too, to probe the layer on their shape *)
        let theta =
          match reply with
          | Svc.Solved { result; _ } when result.Ik.status = Ik.Converged ->
            Some (Array.copy result.Ik.theta)
          | _ -> None
        in
        let session = Option.value it.session ~default:"solve" in
        within r ~name:"journal" ~parent:b.sid ~rid:it.id (fun _ ->
            Journal.append journal
              (Journal.Committed { session; ordinal = it.ordinal; theta; reply = bytes }));
        within r ~name:"frame" ~parent:b.sid ~rid:it.id (fun _ ->
            through_pipe it.payload;
            through_pipe bytes);
        if timed then begin
          incr requests;
          req_bytes := !req_bytes + frame_bytes it.payload;
          reply_bytes := !reply_bytes + frame_bytes bytes;
          replies := (it.id, bytes) :: !replies;
          match reply with
          | Svc.Solved { result; fallbacks = f; _ } ->
            iterations := !iterations + result.Ik.iterations;
            link_evals :=
              !link_evals
              +. float_of_int
                   (result.Ik.iterations * (Svc.default_config.Svc.speculations + 1)
                   * Chain.dof it.request.Svc.problem.Ik.chain);
            if f > 0 then incr fallbacks
          | Svc.Rejected _ | Svc.Faulted _ -> ()
        end)
      batch
  in
  Array.iter (run_batch ~timed:false) plan.warm;
  let before = Svc.metrics svc in
  let size0 = journal_size () and records0 = Journal.appended journal in
  Array.iter (run_batch ~timed:true) plan.timed;
  let after = Svc.metrics svc in
  let journal_bytes = journal_size () - size0 in
  let journal_records = Journal.appended journal - records0 in
  Journal.close journal;
  close_out_noerr oc;
  Unix.close pr;
  {
    service_s = !service_s;
    service_cpu_s = !service_cpu_s;
    requests = !requests;
    iterations = !iterations;
    link_evals = !link_evals;
    fallbacks = !fallbacks;
    req_bytes = !req_bytes;
    reply_bytes = !reply_bytes;
    journal_records;
    journal_bytes;
    before;
    after;
    solve_ms = !solve_ms;
    replies = !replies;
    digest = Digest.to_hex (Digest.string (Buffer.contents digest));
    rec_ = r;
  }

(* ---- per-layer metrics ------------------------------------------------- *)

let mean = function [] -> 0. | xs -> Dadu_util.Stats.mean (Array.of_list xs)


(* the plan's posture library, built as the live plan run builds it *)
let library_file ~exe ~dir ~seed =
  let path = Filename.concat dir "plan.lib" in
  if Sys.file_exists path then path else Live.posture_build ~exe ~dir ~seed

let per_layer ~workload ~seed ~dir ~exe (live : Live.result) =
  let lib_path = library_file ~exe ~dir ~seed in
  let load_s =
    Live.pct 50.
      (Array.init 3 (fun _ ->
           let t0 = Trace.now_s () in
           ignore (load_library lib_path);
           Trace.now_s () -. t0))
  in
  let library = if workload = "plan" then Some (load_library lib_path) else None in
  let run traced = pass ~workload ~seed ~library ~traced ~dir in
  (* a discarded first pass takes the first-run costs (page faults, heap
     growth); then traced and untraced passes run t u u t, so a linear
     drift of the host cancels out of the overhead; the last traced pass
     gives the spans, the untraced ones the Service's CPU time *)
  ignore (run false);
  let t1 = run true in
  let u1 = run false in
  let u2 = run false in
  let t = run true in
  Printf.printf "replay passes, Service time (s): traced %.4f, untraced %.4f %.4f, traced %.4f\n"
    t1.service_s u1.service_s u2.service_s t.service_s;
  let overhead =
    (t1.service_s +. t.service_s -. u1.service_s -. u2.service_s) /. (u1.service_s +. u2.service_s)
  in
  write_spans t.rec_ (Filename.concat (Filename.dirname dir) ("spans-" ^ workload ^ ".jsonl"));
  (* the replay must reproduce the live session replies byte for byte,
     and on track every replayed reply must have its live twin *)
  let matched, mismatches =
    List.fold_left
      (fun (m, x) (id, bytes) ->
        match Hashtbl.find_opt live.Live.replies id with
        | Some live_bytes -> (m + 1, if live_bytes <> bytes then x + 1 else x)
        | None -> (m, x))
      (0, 0) t.replies
  in
  let unmatched = if workload = "track" then List.length t.replies - matched else 0 in
  if mismatches > 0 then
    Printf.printf "FAILED: %d replayed session replies differ from the live ones\n" mismatches;
  if unmatched > 0 then
    Printf.printf "FAILED: %d replayed session replies have no live reply to compare with\n" unmatched;
  let self = self_times t.rec_ in
  let spans name = List.filter (fun s -> s.name = name && s.rid >= 0) t.rec_.spans in
  let mean_self name = mean (List.map self (spans name)) in
  let n = float_of_int (max 1 t.requests) in
  let d f = float_of_int (f t.after - f t.before) in
  let df f = f t.after -. f t.before in
  let lt = live.Live.timed in
  let live_cpu_ms = 1e3 *. lt.Live.server_cpu_s /. float_of_int (max 1 lt.Live.completed) in
  let parse_s = mean_self "parse" and frame_s = mean_self "frame" and journal_s = mean_self "journal" in
  (* the Service's share as process CPU time, like the live figure, from
     the untraced passes *)
  let service_cpu_s = (u1.service_cpu_s +. u2.service_cpu_s) /. (2. *. n) in
  (* the server journals session commits only *)
  let on_path_journal_s = if workload = "track" then journal_s else 0. in
  let live_lat = Hashtbl.create 4096 in
  List.iter (fun (id, ms) -> if Float.is_finite ms then Hashtbl.replace live_lat id ms) lt.Live.latency_ms;
  let waits =
    List.filter_map
      (fun (id, solve) -> Option.map (fun l -> l -. solve) (Hashtbl.find_opt live_lat id))
      t.solve_ms
  in
  let journal_replay_s =
    let path = Filename.concat dir "replay-true.journal" in
    let t0 = Trace.now_s () in
    (match Journal.open_ path with Ok (j, _, _) -> Journal.close j | Error _ -> ());
    Trace.now_s () -. t0
  in
  let select =
    match spans "seed-select" with [] -> spans "prepare" | xs -> xs
  in
  let lookups = d (fun m -> m.Metrics.cache_hits + m.Metrics.cache_misses) in
  let solve_ms = Array.of_list (List.map snd t.solve_ms) in
  Printf.printf "replay: %d timed requests; %d replies matched to live ones; %d waits matched\n"
    t.requests matched (List.length waits);
  ( mismatches = 0 && unmatched = 0,
    [
      ("wire.req_bytes", float_of_int t.req_bytes /. n, "B");
      ("wire.reply_bytes", float_of_int t.reply_bytes /. n, "B");
      ("wire.parse_us", 1e6 *. parse_s, "us");
      ("wire.frame_us", 1e6 *. frame_s, "us");
      ( "server.residual_ms",
        live_cpu_ms -. (1e3 *. (parse_s +. frame_s +. service_cpu_s +. on_path_journal_s)),
        "ms" );
      ("server.wait_p50_ms", Live.pct 50. (Array.of_list waits), "ms");
      ("server.wait_p99_ms", Live.pct 99. (Array.of_list waits), "ms");
      ( "session.warm_frac",
        (let r = d (fun m -> m.Metrics.session_requests) in
         if r = 0. then 0. else d (fun m -> m.Metrics.session_warm) /. r),
        "frac" );
      ("journal.append_us", 1e6 *. journal_s, "us");
      ("journal.bytes_per_commit", float_of_int t.journal_bytes /. float_of_int (max 1 t.journal_records), "B");
      ("journal.records", float_of_int t.journal_records, "count");
      ("journal.replay_s", journal_replay_s, "s");
      ("service.prepare_ms", 1e3 *. df (fun m -> m.Metrics.prepare_s) /. n, "ms");
      ("service.work_ms", 1e3 *. df (fun m -> m.Metrics.work_s) /. n, "ms");
      ("service.commit_ms", 1e3 *. df (fun m -> m.Metrics.commit_s) /. n, "ms");
      ("service.solve_p50_ms", Live.pct 50. solve_ms, "ms");
      ("service.solve_p99_ms", Live.pct 99. solve_ms, "ms");
      ("seed.select_us", 1e6 *. mean (List.map dur select), "us");
      ("seed.library_win_frac", d (fun m -> m.Metrics.seed_library_wins) /. n, "frac");
      ("seed.library_load_s", load_s, "s");
      ("seed.cache_hit_frac", (if lookups = 0. then 0. else d (fun m -> m.Metrics.cache_hits) /. lookups), "frac");
      ("solver.iters_per_req", float_of_int t.iterations /. n, "count");
      ("solver.link_evals_per_req", t.link_evals /. n, "count");
      ("solver.ns_per_link_eval", 1e9 *. df (fun m -> m.Metrics.work_s) /. Float.max 1. t.link_evals, "ns");
      ("solver.fallback_frac", float_of_int t.fallbacks /. n, "frac");
      ( "client.cpu_ms_per_req",
        1e3 *. lt.Live.client_cpu_s /. float_of_int (max 1 lt.Live.completed),
        "ms" );
      ("client.gen_late_ms", Live.pct 99. lt.Live.late_ms, "ms");
      ("trace.overhead_frac", overhead, "frac");
    ] )

(* ---- self-test --------------------------------------------------------- *)

let counted p =
  [
    ("requests", p.requests);
    ("iterations", p.iterations);
    ("cache_hits", p.after.Metrics.cache_hits - p.before.Metrics.cache_hits);
    ("library_wins", p.after.Metrics.seed_library_wins - p.before.Metrics.seed_library_wins);
    ("req_bytes", p.req_bytes);
    ("reply_bytes", p.reply_bytes);
    ("journal_records", p.journal_records);
    ("journal_bytes", p.journal_bytes);
  ]

(* Two replays with one seed must count exactly the same work; a replay
   with another seed must see other inputs. *)
let selftest ~workload ~seed ~exe ~dir =
  let run seed =
    let library =
      if workload = "plan" then
        Some (load_library (Live.posture_build ~exe ~dir ~seed))
      else None
    in
    pass ~workload ~seed ~library ~traced:false ~dir
  in
  let a = run seed and b = run seed and c = run (seed + 1) in
  List.iter2
    (fun (name, x) (_, y) -> Printf.printf "%-16s %12d %12d%s\n" name x y (if x = y then "" else "  DIFFERS"))
    (counted a) (counted b);
  Printf.printf "inputs seed %d: %s %s; seed %d: %s\n" seed a.digest b.digest (seed + 1) c.digest;
  let ok = counted a = counted b && a.digest = b.digest && a.digest <> c.digest in
  print_endline (if ok then "selftest: ok" else "selftest: FAILED");
  ok
