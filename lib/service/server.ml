open Dadu_core
open Dadu_kinematics
module Json = Dadu_util.Json
module Pf = Problem_file

(* ---- listen addresses ------------------------------------------------ *)

type listen = Unix_sock of string | Tcp of string * int

let listen_of_string s =
  let s = String.trim s in
  let prefix p =
    if String.length s > String.length p && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match prefix "unix:" with
  | Some path when path <> "" -> Ok (Unix_sock path)
  | Some _ -> Error "empty unix socket path"
  | None ->
    (match prefix "tcp:" with
    | Some rest ->
      (match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "expected tcp:host:port (got %S)" s)
      | Some i ->
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        (match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 ->
          Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | Some _ | None ->
          Error (Printf.sprintf "bad tcp port %S" port)))
    | None ->
      if s = "" then Error "empty listen address" else Ok (Unix_sock s))

let string_of_listen = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let sockaddr = function
  | Unix_sock path -> Ok (Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
    (match (Unix.gethostbyname host).Unix.h_addr_list.(0) with
    | ip -> Ok (Unix.ADDR_INET (ip, port))
    | exception Not_found ->
      (match Unix.inet_addr_of_string host with
      | ip -> Ok (Unix.ADDR_INET (ip, port))
      | exception Failure _ -> Error ("unknown host " ^ host)))

(* ---- configuration --------------------------------------------------- *)

type config = {
  service : Service.config;
  queue_capacity : int;
  max_batch : int;
  max_connections : int;
  idle_timeout_s : float option;
  frame_timeout_s : float option;
  retry_after_ms : int;
  est_job_ms : float;
  net_fault : Dadu_util.Fault.t;
  journal : string option;
}

let default_config =
  {
    service = Service.default_config;
    queue_capacity = 1024;
    max_batch = 256;
    max_connections = 1024;
    idle_timeout_s = None;
    (* a half-written frame may pin a reader for at most this long by
       default; None restores the legacy block-forever behavior *)
    frame_timeout_s = Some 30.;
    retry_after_ms = 50;
    est_job_ms = 0.;
    net_fault = Dadu_util.Fault.disabled;
    journal = None;
  }

(* ---- per-tenant accounting ------------------------------------------- *)

type tenant = { metrics : Metrics.t; overloaded : int Atomic.t }

(* ---- connections ------------------------------------------------------

   One reader thread per connection.  [wlock] serializes frame writes
   (the reader answers control ops; the dispatcher answers solve ops)
   and guards the pending/eof/dead lifecycle fields, so the socket is
   closed exactly once: by the reader at EOF when no replies are in
   flight, else by whichever reply delivery drains [pending] last. *)

type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  wlock : Mutex.t;
  (* wire-fault forks: reads and writes get separate registries (fork
     indices 2i / 2i+1 for the i-th accepted connection) so each side's
     counter-based triggers see a deterministic consultation sequence *)
  rfault : Dadu_util.Fault.t;
  wfault : Dadu_util.Fault.t;
  mutable tenant : string;
  mutable pending : int;
      (* replies owed: solve jobs queued and resends waiting, not yet
         written *)
  mutable eof : bool; (* reader finished *)
  mutable dead : bool; (* write failed or fatal framing error: stop writing *)
  mutable closed : bool;
  mutable unflushed : bool;
      (* the dispatcher wrote frames it has not flushed yet: it flushes
         each such connection once, at the end of its batch *)
}

(* a resend of a waypoint whose reply is still to come: answered with
   the original's reply bytes once they are final (DESIGN.md §16) *)
type waiter = { wsession : Session.t; wordinal : int; wconn : conn }

type job = {
  jconn : conn;
  jid : int; (* client-assigned id, echoed in the reply *)
  jtenant : string; (* tenant at enqueue time *)
  jsession : string option;
  jordinal : int;
  jrequest : Service.request;
}

type t = {
  config : config;
  service : Service.t;
  sessions : (string, Session.t) Hashtbl.t;
  mutable waiters : waiter list; (* guarded by slock *)
  slock : Mutex.t;
  tenants : (string, tenant) Hashtbl.t;
  tlock : Mutex.t;
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable stopping : bool; (* written under qlock by [begin_drain] *)
  stop_flag : bool Atomic.t; (* set by [stop]; signal-safe *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable conns : conn list; (* guarded by clock *)
  clock : Mutex.t;
  nconns : int Atomic.t; (* live connections (reader threads running) *)
  journal : Journal.t option;
  mutable journal_recovery : Journal.load_error option;
      (* the defect (if any) found and cut off while opening the journal *)
}

let tenant_of t name =
  Mutex.lock t.tlock;
  let tn =
    match Hashtbl.find_opt t.tenants name with
    | Some tn -> tn
    | None ->
      let tn = { metrics = Metrics.create (); overloaded = Atomic.make 0 } in
      Hashtbl.add t.tenants name tn;
      tn
  in
  Mutex.unlock t.tlock;
  tn

type replayed = {
  journal : Journal.t;
  sessions : (string, Session.t) Hashtbl.t;
  records : int;
  applied : int;
  defect : Journal.load_error option;
}

(* Rebuild the session registry from the journal in one streaming fold:
   each record's lifecycle event (open / commit / close) is applied to
   the registry as soon as it is decoded, so a live session holds its
   ordinal counter, warm-start slot and reply window, and nothing else
   of the history is kept — the state an uninterrupted server would
   hold with in-flight work excluded (DESIGN.md §16). *)
let replay_journal path =
  let sessions = Hashtbl.create 16 in
  let records = ref 0 in
  let apply applied record =
    incr records;
    let ok =
      match record with
      | Journal.Opened { session; robot; chain_fp; dof = _ } ->
        (match Pf.robot_of_spec robot with
        | Error _ -> false (* spec no longer resolves: drop the session *)
        | Ok chain ->
          if Chain.fingerprint chain = chain_fp && not (Hashtbl.mem sessions session)
          then begin
            Hashtbl.replace sessions session (Session.create ~name:session ~chain);
            true
          end
          else false)
      | Journal.Committed { session; ordinal; theta; reply } ->
        (match Hashtbl.find_opt sessions session with
        | None -> false
        | Some sess ->
          Session.replay_commit sess ~ordinal ~theta reply;
          true)
      | Journal.Closed { session } ->
        (match Hashtbl.find_opt sessions session with
        | None -> false
        | Some sess ->
          Hashtbl.remove sessions session;
          Session.release sess;
          true)
    in
    if ok then applied + 1 else applied
  in
  match Journal.open_fold path ~init:0 ~f:apply with
  | Ok (journal, applied, defect) ->
    Ok { journal; sessions; records = !records; applied; defect }
  | Error e -> Error e

let create ?pool ?(config = default_config) () =
  if config.queue_capacity < 0 then
    invalid_arg "Server.create: queue_capacity must be non-negative";
  if config.max_batch < 1 then
    invalid_arg "Server.create: max_batch must be positive";
  if config.max_connections < 1 then
    invalid_arg "Server.create: max_connections must be positive";
  if config.retry_after_ms < 0 then
    invalid_arg "Server.create: retry_after_ms must be non-negative";
  let replayed =
    match config.journal with
    | None -> None
    | Some path ->
      (match replay_journal path with
      | Ok r -> Some r
      | Error e ->
        invalid_arg
          (Format.asprintf "Server.create: journal %s: %a" path
             Journal.pp_load_error e))
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      config;
      service = Service.create ?pool ~config:config.service ();
      sessions =
        (match replayed with Some r -> r.sessions | None -> Hashtbl.create 16);
      waiters = [];
      slock = Mutex.create ();
      tenants = Hashtbl.create 4;
      tlock = Mutex.create ();
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      stopping = false;
      stop_flag = Atomic.make false;
      wake_r;
      wake_w;
      conns = [];
      clock = Mutex.create ();
      nconns = Atomic.make 0;
      journal = Option.map (fun r -> r.journal) replayed;
      journal_recovery = Option.bind replayed (fun r -> r.defect);
    }
  in
  (match replayed with
  | Some r when r.records > 0 ->
    let metrics = (tenant_of t "default").metrics in
    for _ = 1 to r.applied do
      Metrics.record_net metrics Metrics.Journal_replay
    done
  | Some _ | None -> ());
  t

let journal_recovery t = t.journal_recovery

(* Signal-safe: one atomic store and one pipe write; the accept loop does
   the lock-taking part of the shutdown from ordinary context. *)
let stop t =
  if not (Atomic.exchange t.stop_flag true) then
    ignore (try Unix.write t.wake_w (Bytes.make 1 '!') 0 1 with Unix.Unix_error _ -> 0)

(* ---- reply serialization ----------------------------------------------

   Reply payloads are built by direct Buffer adds (Reply_text), not by
   Printf or a JSON pretty-printer: ints as %d, booleans as %b, strings
   as %S and doubles as C's "%.17g" print them, the doubles by an exact
   integer conversion.  Their bytes are a pure function of the reply
   values — the `cmp` determinism gates compare these bytes across pool
   sizes.  Nothing clock-derived is ever included. *)

type encoder = { text : Buffer.t; digits : bytes }

let encoder () =
  { text = Buffer.create 1024; digits = Bytes.create Reply_text.scratch_bytes }

let json_floats xs =
  let b = Buffer.create (25 * Array.length xs) in
  Reply_text.add_floats b (Bytes.create Reply_text.scratch_bytes) xs;
  Buffer.contents b

let encode_reply enc ~id ~session ~ordinal (reply : Service.reply) =
  let open Reply_text in
  let b = enc.text in
  Buffer.clear b;
  let reason kind msg =
    Buffer.add_string b "{\"reply\":\"";
    Buffer.add_string b kind;
    Buffer.add_string b "\",\"id\":";
    add_int b id;
    Buffer.add_string b ",\"reason\":";
    add_quoted b msg;
    Buffer.add_char b '}'
  in
  (match reply with
  | Service.Rejected invalid ->
    reason "rejected" (Format.asprintf "%a" Ik.pp_invalid invalid)
  | Service.Faulted msg -> reason "faulted" msg
  | Service.Solved
      {
        result;
        solver;
        fallbacks;
        cache_hit;
        session_hit;
        deadline_exceeded;
        retries;
        _;
      } ->
    Buffer.add_string b "{\"reply\":\"solved\",\"id\":";
    add_int b id;
    Buffer.add_char b ',';
    (match session with
    | None -> ()
    | Some s ->
      Buffer.add_string b "\"session\":";
      add_quoted b s;
      Buffer.add_string b ",\"ordinal\":";
      add_int b ordinal;
      Buffer.add_char b ',');
    Buffer.add_string b "\"status\":";
    add_quoted b (Ik.string_of_status result.Ik.status);
    Buffer.add_string b ",\"solver\":";
    add_quoted b (Fallback.name solver);
    Buffer.add_string b ",\"iterations\":";
    add_int b result.Ik.iterations;
    Buffer.add_string b ",\"error\":";
    add_float b enc.digits result.Ik.error;
    Buffer.add_string b ",\"fallbacks\":";
    add_int b fallbacks;
    Buffer.add_string b ",\"retries\":";
    add_int b retries;
    Buffer.add_string b ",\"cache_hit\":";
    add_bool b cache_hit;
    Buffer.add_string b ",\"session_hit\":";
    add_bool b session_hit;
    Buffer.add_string b ",\"deadline_exceeded\":";
    add_bool b deadline_exceeded;
    Buffer.add_string b ",\"theta\":[";
    add_floats b enc.digits result.Ik.theta;
    Buffer.add_string b "]}");
  Buffer.contents b

(* mark the connection unusable and force the peer to notice: a planned
   cut or short frame must unblock a peer blocked on replies, so the
   descriptor is shut down in both directions (closed later, once, by
   the normal lifecycle).  Called with wlock held. *)
let kill_conn_locked conn =
  conn.dead <- true;
  if not conn.closed then
    try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let send conn payload =
  Mutex.lock conn.wlock;
  (if not (conn.dead || conn.closed) then
     try
       if not (Pf.write_frame_injected ~fault:conn.wfault conn.oc payload)
       then kill_conn_locked conn
     with Sys_error _ | Unix.Unix_error _ -> conn.dead <- true);
  Mutex.unlock conn.wlock

(* Closing [oc] closes [fd]: the descriptor must not be closed a second
   time, since by then the accept loop may have reused its number for a
   new connection. *)
let close_conn conn =
  if not conn.closed then begin
    conn.closed <- true;
    close_out_noerr conn.oc
  end

(* called with wlock held *)
let maybe_close_locked conn =
  if conn.eof && conn.pending = 0 then close_conn conn

let reply_error conn ~id msg =
  let idpart = if id >= 0 then Printf.sprintf "\"id\":%d," id else "" in
  send conn (Printf.sprintf "{\"reply\":\"error\",%s\"message\":%S}" idpart msg)

(* mirror the Service's own commit-phase accounting into the tenant's
   registry; replies carry everything the event needs *)
let record_tenant t job (reply : Service.reply) =
  let tn = tenant_of t job.jtenant in
  match reply with
  | Service.Rejected invalid -> Metrics.record tn.metrics (Metrics.Rejected invalid)
  | Service.Faulted msg -> Metrics.record tn.metrics (Metrics.Faulted msg)
  | Service.Solved
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
      } ->
    Metrics.record tn.metrics
      (Metrics.Solved
         {
           converged = result.Ik.status = Ik.Converged;
           diverged = result.Ik.status = Ik.Diverged;
           fallbacks;
           session = job.jsession <> None;
           session_hit;
           deadline_exceeded;
           breaker_skips;
           retries;
           retry_converged;
           latency_s;
           iterations = result.Ik.iterations;
         })

(* Write a reply the connection is owed (counted in [pending]).  Given
   [later], the dispatcher's list of connections to flush at the end of
   its batch, the frame goes into the channel unflushed and the
   connection joins the list once; a channel that fills up is flushed
   early, which is still after the batch's journal write.  Under a
   wire-fault plan every frame still goes out on its own through
   [write_frame_injected], so the fault sites see the same frames. *)
let write_owed ?later conn payload =
  Mutex.lock conn.wlock;
  (if not (conn.dead || conn.closed) then
     try
       match later with
       | Some later when not (Dadu_util.Fault.enabled conn.wfault) ->
         Pf.write_frame conn.oc payload;
         if not conn.unflushed then begin
           conn.unflushed <- true;
           later := conn :: !later
         end
       | Some _ | None ->
         if not (Pf.write_frame_injected ~fault:conn.wfault conn.oc payload)
         then kill_conn_locked conn
     with Sys_error _ | Unix.Unix_error _ -> conn.dead <- true);
  conn.pending <- conn.pending - 1;
  maybe_close_locked conn;
  Mutex.unlock conn.wlock

let flush_later later =
  List.iter
    (fun conn ->
      Mutex.lock conn.wlock;
      (if conn.unflushed then begin
         conn.unflushed <- false;
         if not (conn.dead || conn.closed) then
           try flush conn.oc
           with Sys_error _ | Unix.Unix_error _ -> conn.dead <- true
       end);
      Mutex.unlock conn.wlock)
    later

(* The resends waiting on the reply of [sess]'s [ordinal], taken off the
   list; called with slock held.  Matched on the job's own session
   object, so a session closed (or closed and re-opened) meanwhile still
   answers its waiters. *)
let take_waiters (t : t) sess ~ordinal =
  match t.waiters with
  | [] -> []
  | waiters ->
    let mine, others =
      List.partition (fun w -> w.wsession == sess && w.wordinal = ordinal) waiters
    in
    t.waiters <- others;
    mine

(* [payload] is the final reply of the session's [ordinal]: keep it for
   resends, and answer the resends that arrived while it was pending. *)
let settle t sess ~ordinal payload =
  Mutex.lock t.slock;
  Session.remember_reply sess ~ordinal payload;
  let answered = take_waiters t sess ~ordinal in
  Mutex.unlock t.slock;
  List.iter (fun w -> write_owed w.wconn payload) answered

let registered (t : t) name sess =
  match Hashtbl.find_opt t.sessions name with
  | Some current -> current == sess
  | None -> false

(* Group commit, the write-ahead step of a batch, under slock.  First
   the commit record of every session reply whose session is still the
   one registered under its name is staged, and the batch's records are
   written with one flush.  Only then is each session reply remembered
   in its session's window, and the resends waiting on it are taken, to
   be answered with the batch's frames.  A crash after the write
   replays these exact bytes to a resending client; a crash before it
   re-solves the waypoints from the journalled predecessor state —
   byte-identical either way (DESIGN.md §16).

   The registration check keeps a pipelined close and re-open sound: a
   late reply of the closed session still goes to its client, but its
   record would land after the new session's [Opened] record and replay
   would apply it to the new session.  [handle_open] and [handle_close]
   append under slock as well, so no [Opened] or [Closed] record lands
   between the check and the write. *)
let commit_batch t staging jobs (replies : Service.reply array) payloads =
  let answered = Array.make (Array.length jobs) [] in
  Mutex.lock t.slock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.slock)
    (fun () ->
      (match t.journal with
      | None -> ()
      | Some j ->
        Array.iteri
          (fun i job ->
            match (job.jsession, job.jrequest.Service.session) with
            | Some session, Some sess when registered t session sess ->
              let theta =
                match replies.(i) with
                | Service.Solved { result; _ } when result.Ik.status = Ik.Converged ->
                  Some result.Ik.theta
                | _ -> None
              in
              Journal.stage staging
                (Journal.Committed
                   { session; ordinal = job.jordinal; theta; reply = payloads.(i) });
              Metrics.record_net (tenant_of t job.jtenant).metrics
                Metrics.Journal_append
            | _ -> ())
          jobs;
        Journal.write_staged j staging);
      Array.iteri
        (fun i job ->
          match (job.jsession, job.jrequest.Service.session) with
          | Some _, Some sess ->
            Session.remember_reply sess ~ordinal:job.jordinal payloads.(i);
            answered.(i) <- take_waiters t sess ~ordinal:job.jordinal
          | _ -> ())
        jobs);
  answered

(* ---- admission --------------------------------------------------------

   The bounded queue is the backpressure point: a full queue sheds the
   request with a typed [overloaded] reply instead of queueing without
   bound.  [queue_capacity = 0] sheds everything — the load-test and
   cram hook.  Shedding is inherently timing-dependent; the determinism
   contract covers unshed traffic. *)

let enqueue t job =
  Mutex.lock t.qlock;
  let qlen = Queue.length t.queue in
  (* deadline-aware shed: with an estimated per-job cost configured, a
     request whose deadline the queue already cannot meet is refused up
     front — the retry_after hint tells the client when trying again
     might actually succeed *)
  let deadline_shed =
    t.config.est_job_ms > 0.
    &&
    match job.jrequest.Service.deadline_s with
    | Some d -> float_of_int (qlen + 1) *. t.config.est_job_ms /. 1000. > d
    | None -> false
  in
  let admitted =
    (not t.stopping) && (not deadline_shed) && qlen < t.config.queue_capacity
  in
  if admitted then begin
    let conn = job.jconn in
    Mutex.lock conn.wlock;
    conn.pending <- conn.pending + 1;
    Mutex.unlock conn.wlock;
    Queue.add job t.queue;
    Condition.signal t.qcond
  end;
  Mutex.unlock t.qlock;
  if not admitted then begin
    let tn = tenant_of t job.jtenant in
    Atomic.incr tn.overloaded;
    if deadline_shed then Metrics.record_net tn.metrics Metrics.Retry_after_shed;
    let spart =
      match job.jsession with
      | None -> ""
      | Some s -> Printf.sprintf ",\"session\":%S" s
    in
    let payload =
      Printf.sprintf "{\"reply\":\"overloaded\",\"id\":%d%s,\"retry_after_ms\":%d}"
        job.jid spart t.config.retry_after_ms
    in
    (* a shed waypoint's ordinal is spent: the shed is its final reply *)
    (match job.jrequest.Service.session with
    | Some sess -> settle t sess ~ordinal:job.jordinal payload
    | None -> ());
    send job.jconn payload
  end

(* ---- dispatcher --------------------------------------------------------

   A single thread drains the queue into batches and runs them through
   the Service.  Batch composition is FIFO in arrival order; session
   determinism never depends on where batch (or wave) boundaries fall —
   the session slot chain plus stable ordinals carry it (DESIGN.md §15). *)

let dispatcher t () =
  let enc = encoder () in
  let staging = Journal.staging () in
  let later = ref [] in
  let running = ref true in
  while !running do
    Mutex.lock t.qlock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.qcond t.qlock
    done;
    if Queue.is_empty t.queue then begin
      (* stopping and drained *)
      running := false;
      Mutex.unlock t.qlock
    end
    else begin
      let jobs = ref [] in
      let n = ref 0 in
      while (not (Queue.is_empty t.queue)) && !n < t.config.max_batch do
        jobs := Queue.pop t.queue :: !jobs;
        incr n
      done;
      Mutex.unlock t.qlock;
      let jobs = Array.of_list (List.rev !jobs) in
      let requests = Array.map (fun j -> j.jrequest) jobs in
      let replies = Service.solve_requests t.service requests in
      (* each reply encoded once; the journal written once per batch,
         before any frame; each connection flushed once *)
      let payloads =
        Array.mapi
          (fun i job ->
            record_tenant t job replies.(i);
            encode_reply enc ~id:job.jid ~session:job.jsession
              ~ordinal:job.jordinal replies.(i))
          jobs
      in
      let answered = commit_batch t staging jobs replies payloads in
      Array.iteri
        (fun i job ->
          List.iter (fun w -> write_owed ~later w.wconn payloads.(i)) answered.(i);
          write_owed ~later job.jconn payloads.(i))
        jobs;
      flush_later !later;
      later := []
    end
  done

(* ---- ops ------------------------------------------------------------- *)

let json_int_member key json =
  match Json.member key json with
  | Some j -> Option.map int_of_float (Json.to_float j)
  | None -> None

let json_target json =
  match Option.bind (Json.member "target" json) Json.to_list with
  | Some [ x; y; z ] ->
    (match (Json.to_float x, Json.to_float y, Json.to_float z) with
    | Some x, Some y, Some z -> Some (Dadu_linalg.Vec3.make x y z)
    | _ -> None)
  | Some _ | None -> None

let json_theta0 json =
  match Json.member "theta0" json with
  | None -> Ok None
  | Some j ->
    (match Json.to_list j with
    | None -> Error "theta0 must be an array of numbers"
    | Some xs ->
      let floats = List.filter_map Json.to_float xs in
      if List.length floats <> List.length xs then
        Error "theta0 must be an array of numbers"
      else Ok (Some (Array.of_list floats)))

let json_deadline json =
  match Json.member "deadline" json with
  | None -> Ok None
  | Some j ->
    (match Json.to_float j with
    | Some d when d >= 0. && Float.is_finite d -> Ok (Some d)
    | Some _ | None -> Error "deadline must be a non-negative number")

let clamped_zero chain =
  Chain.clamp_config chain (Dadu_linalg.Vec.create (Chain.dof chain))

let handle_open t conn ~id ~session ~robot =
  (* a record holding a longer name or spec would be cut off, with
     every later record, by the next restart's decoder *)
  let too_long what s =
    Error
      (Printf.sprintf "%s is %d bytes, longer than the limit of %d" what
         (String.length s) Journal.max_string_len)
  in
  let chain =
    if String.length session > Journal.max_string_len then
      too_long "session name" session
    else if String.length robot > Journal.max_string_len then
      too_long "robot spec" robot
    else Pf.robot_of_spec robot
  in
  match chain with
  | Error msg -> reply_error conn ~id msg
  | Ok chain ->
    Mutex.lock t.slock;
    let outcome =
      match Hashtbl.find_opt t.sessions session with
      | Some sess ->
        if Chain.fingerprint (Session.chain sess) = Chain.fingerprint chain
        then Ok (sess, true)
        else Error "session exists with a different robot"
      | None ->
        let sess = Session.create ~name:session ~chain in
        Hashtbl.add t.sessions session sess;
        (match t.journal with
        | Some j ->
          Journal.append j
            (Journal.Opened
               {
                 session;
                 robot;
                 chain_fp = Chain.fingerprint chain;
                 dof = Chain.dof chain;
               });
          Metrics.record_net (tenant_of t conn.tenant).metrics
            Metrics.Journal_append
        | None -> ());
        Ok (sess, false)
    in
    Mutex.unlock t.slock;
    (match outcome with
    | Error msg -> reply_error conn ~id msg
    | Ok (sess, resumed) ->
      send conn
        (Printf.sprintf
           "{\"reply\":\"opened\",\"id\":%d,\"session\":%S,\"dof\":%d,\"resumed\":%b,\"waypoints\":%d}"
           id session
           (Chain.dof (Session.chain sess))
           resumed (Session.accepted sess)))

let handle_waypoint t conn ~id ~session json =
  match json_target json with
  | None -> reply_error conn ~id "waypoint needs target:[x,y,z]"
  | Some target ->
    (* one reader thread per connection keeps a session's waypoints in
       client-stream order; the slock-guarded counter then hands out
       ordinals in that order, so for a fixed per-session waypoint
       sequence the ordinals — and therefore replies — are fixed
       whatever interleaving delivers other connections' frames.

       An optional "seq" member carries the client's own per-session
       waypoint index and makes resends idempotent: a seq behind the
       session's counter is a waypoint already accepted, answered with
       the original reply bytes — from the ring if they are final, else
       once they are (at most one solve, exactly one well-formed reply
       per waypoint, whatever the wire did in between — DESIGN.md
       §16). *)
    let seq = json_int_member "seq" json in
    Mutex.lock t.slock;
    let found = Hashtbl.find_opt t.sessions session in
    let outcome =
      match found with
      | None -> `Unknown
      | Some sess ->
        let accepted = Session.accepted sess in
        (match seq with
        | Some k when k < accepted ->
          (match Session.recall_reply sess ~ordinal:k with
          | Some payload -> `Replay payload
          | None when Session.awaiting_reply sess ~ordinal:k ->
            (* owed like a job's reply: the connection stays open until
               [settle] writes it *)
            Mutex.lock conn.wlock;
            conn.pending <- conn.pending + 1;
            Mutex.unlock conn.wlock;
            t.waiters <- { wsession = sess; wordinal = k; wconn = conn } :: t.waiters;
            `Waiting
          | None -> `Stale (k, accepted))
        | Some k when k > accepted -> `Gap (k, accepted)
        | _ ->
          let chain = Session.chain sess in
          let ordinal = Session.next_ordinal sess in
          let problem =
            Ik.problem ~chain ~target ~theta0:(clamped_zero chain)
          in
          `Job
            {
              jconn = conn;
              jid = id;
              jtenant = conn.tenant;
              jsession = Some session;
              jordinal = ordinal;
              jrequest = Service.request ~session:sess ~ordinal problem;
            })
    in
    Mutex.unlock t.slock;
    (match outcome with
    | `Unknown ->
      reply_error conn ~id (Printf.sprintf "unknown session %S" session)
    | `Replay payload -> send conn payload
    | `Waiting -> ()
    | `Stale (k, accepted) ->
      reply_error conn ~id
        (Printf.sprintf
           "stale waypoint seq %d (session %S at %d, replay window exhausted)"
           k session accepted)
    | `Gap (k, accepted) ->
      reply_error conn ~id
        (Printf.sprintf "waypoint seq %d ahead of session %S (at %d)" k
           session accepted)
    | `Job job -> enqueue t job)

let handle_solve t conn ~id json =
  match Option.bind (Json.member "robot" json) Json.to_str with
  | None -> reply_error conn ~id "solve needs robot:\"<spec>\""
  | Some spec ->
    (match Pf.robot_of_spec spec with
    | Error msg -> reply_error conn ~id msg
    | Ok chain ->
      (match (json_target json, json_theta0 json, json_deadline json) with
      | None, _, _ -> reply_error conn ~id "solve needs target:[x,y,z]"
      | _, Error msg, _ | _, _, Error msg -> reply_error conn ~id msg
      | Some target, Ok theta0, Ok deadline_s ->
        let dof = Chain.dof chain in
        (match theta0 with
        | Some th when Array.length th <> dof ->
          reply_error conn ~id
            (Printf.sprintf "theta0 has %d entries but %s has %d DOF"
               (Array.length th) (Chain.name chain) dof)
        | _ ->
          let theta0 =
            match theta0 with
            | Some th -> th
            | None -> clamped_zero chain
          in
          let problem = Ik.problem ~chain ~target ~theta0 in
          (* a one-shot solve's stable ordinal is its client id: the
             noise key is then chosen by the client stream, not by how
             the dispatcher happened to batch *)
          enqueue t
            {
              jconn = conn;
              jid = id;
              jtenant = conn.tenant;
              jsession = None;
              jordinal = id;
              jrequest = Service.request ?deadline_s ~ordinal:id problem;
            })))

let handle_close t conn ~id ~session =
  Mutex.lock t.slock;
  let found = Hashtbl.find_opt t.sessions session in
  (match found with
  | Some sess ->
    Hashtbl.remove t.sessions session;
    (* the window's bytes are off the heap, so they go now, not when
       the GC gets round to the session; a late commit of it leaves the
       released window alone *)
    Session.release sess;
    (match t.journal with
    | Some j ->
      Journal.append j (Journal.Closed { session });
      Metrics.record_net (tenant_of t conn.tenant).metrics
        Metrics.Journal_append
    | None -> ())
  | None -> ());
  Mutex.unlock t.slock;
  match found with
  | None -> reply_error conn ~id (Printf.sprintf "unknown session %S" session)
  | Some sess ->
    send conn
      (Printf.sprintf
         "{\"reply\":\"closed\",\"id\":%d,\"session\":%S,\"waypoints\":%d}" id
         session (Session.accepted sess))

let handle_stats t conn =
  let tn = tenant_of t conn.tenant in
  let s = Metrics.counters tn.metrics in
  send conn
    (Printf.sprintf
       "{\"reply\":\"stats\",\"tenant\":%S,\"requests\":%d,\"converged\":%d,\"failed\":%d,\"rejected\":%d,\"faulted\":%d,\"session_requests\":%d,\"session_warm\":%d,\"overloaded\":%d,\"timeouts\":%d,\"disconnects\":%d,\"journal_appends\":%d,\"journal_replays\":%d,\"retry_after_sheds\":%d,\"busy\":%d}"
       conn.tenant s.Metrics.requests s.Metrics.converged s.Metrics.failed
       s.Metrics.rejected s.Metrics.faulted s.Metrics.session_requests
       s.Metrics.session_warm
       (Atomic.get tn.overloaded) s.Metrics.timeouts s.Metrics.disconnects
       s.Metrics.journal_appends s.Metrics.journal_replays
       s.Metrics.retry_after_sheds s.Metrics.busy_refusals)

let handle_payload t conn payload =
  match Json.of_string payload with
  | Error msg ->
    (* malformed JSON in a well-framed payload: typed error reply, the
       connection stays up (pinned by the serve_live cram test) *)
    reply_error conn ~id:(-1) (Printf.sprintf "malformed payload: %s" msg)
  | Ok json ->
    let id = Option.value ~default:(-1) (json_int_member "id" json) in
    (match Option.bind (Json.member "op" json) Json.to_str with
    | None -> reply_error conn ~id "missing op"
    | Some "hello" ->
      (match Option.bind (Json.member "tenant" json) Json.to_str with
      | None -> reply_error conn ~id "hello needs tenant:\"<name>\""
      | Some tenant ->
        conn.tenant <- tenant;
        ignore (tenant_of t tenant);
        send conn (Printf.sprintf "{\"reply\":\"hello\",\"tenant\":%S}" tenant))
    | Some "ping" -> send conn "{\"reply\":\"pong\"}"
    | Some "stats" -> handle_stats t conn
    | Some (("open" | "waypoint" | "solve" | "close") as op) ->
      if id < 0 then
        reply_error conn ~id
          (Printf.sprintf "%s needs a non-negative id" op)
      else begin
        let session () =
          Option.bind (Json.member "session" json) Json.to_str
        in
        match op with
        | "open" ->
          (match
             (session (), Option.bind (Json.member "robot" json) Json.to_str)
           with
          | None, _ -> reply_error conn ~id "open needs session:\"<name>\""
          | _, None -> reply_error conn ~id "open needs robot:\"<spec>\""
          | Some session, Some robot -> handle_open t conn ~id ~session ~robot)
        | "waypoint" ->
          (match session () with
          | None -> reply_error conn ~id "waypoint needs session:\"<name>\""
          | Some session -> handle_waypoint t conn ~id ~session json)
        | "solve" -> handle_solve t conn ~id json
        | _ ->
          (match session () with
          | None -> reply_error conn ~id "close needs session:\"<name>\""
          | Some session -> handle_close t conn ~id ~session)
      end
    | Some op -> reply_error conn ~id (Printf.sprintf "unknown op %S" op))

(* ---- connection reader ------------------------------------------------ *)

let reader t conn () =
  let module Fault = Dadu_util.Fault in
  let r = Pf.frame_reader conn.fd in
  let net_metrics ev = Metrics.record_net (tenant_of t conn.tenant).metrics ev in
  let running = ref true in
  let unclean = ref false in
  while !running do
    (* receiver-side net-cut: the wire drops before the next frame is
       read — the connection dies as if the peer reset it *)
    if Fault.fires conn.rfault ~site:Fault.net_cut () <> None then begin
      unclean := true;
      running := false
    end
    else
      match
        Pf.read_frame_fd ?idle_timeout_s:t.config.idle_timeout_s
          ?frame_timeout_s:t.config.frame_timeout_s r
      with
      | Pf.Frame payload -> handle_payload t conn payload
      | Pf.Eof -> running := false
      | Pf.Timed_out which ->
        net_metrics Metrics.Timeout;
        reply_error conn ~id:(-1)
          (match which with
          | `Idle -> "idle timeout"
          | `Frame -> "read timeout: frame incomplete");
        running := false
      | Pf.Frame_error msg ->
        (* the frame stream is desynchronized: a final error reply, then
           drop the connection *)
        unclean := true;
        reply_error conn ~id:(-1) msg;
        running := false
      | exception (Sys_error _ | End_of_file | Unix.Unix_error _) ->
        unclean := true;
        running := false
  done;
  if !unclean then net_metrics Metrics.Disconnect;
  Mutex.lock conn.wlock;
  conn.eof <- true;
  if !unclean then kill_conn_locked conn;
  maybe_close_locked conn;
  Mutex.unlock conn.wlock;
  Atomic.decr t.nconns

(* ---- accept loop and drain -------------------------------------------- *)

let begin_drain t =
  Mutex.lock t.qlock;
  t.stopping <- true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qlock

type listener = { lfd : Unix.file_descr; path : string option }

let unlink_quietly path = try Unix.unlink path with Unix.Unix_error _ -> ()

(* a socket file left by an earlier run is replaced; any other file at the
   path is kept, and the bind then fails on it *)
let remove_stale_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> unlink_quietly path
  | _ | (exception Unix.Unix_error _) -> ()

let bind listen =
  match sockaddr listen with
  | Error _ as e -> e
  | Ok addr ->
    let path = match listen with Unix_sock p -> Some p | Tcp _ -> None in
    Option.iter remove_stale_socket path;
    (match
       Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr)
         Unix.SOCK_STREAM 0
     with
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | lfd ->
      (match
         Unix.setsockopt lfd Unix.SO_REUSEADDR true;
         Unix.bind lfd addr;
         Unix.listen lfd 64
       with
      | () -> Ok { lfd; path }
      | exception Unix.Unix_error (e, _, _) ->
        Unix.close lfd;
        Error (Unix.error_message e)))

let run t { lfd; path } =
  if Atomic.get t.stop_flag then invalid_arg "Server.run: already stopped";
  (* a client vanishing mid-write must not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let disp = Thread.create (dispatcher t) () in
  let readers = ref [] in
  let accepted = ref 0 in
  let accepting = ref true in
  while !accepting do
    match Unix.select [ lfd; t.wake_r ] [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if Atomic.get t.stop_flag then accepting := false
    | ready, _, _ ->
      if List.mem t.wake_r ready || Atomic.get t.stop_flag then
        accepting := false
      else if List.mem lfd ready then begin
        match Unix.accept ~cloexec:true lfd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          if Atomic.get t.nconns >= t.config.max_connections then begin
            (* typed refusal at the cap: one busy frame, then close —
               never a silent drop, never an unbounded reader thread *)
            Metrics.record_net (tenant_of t "default").metrics
              Metrics.Busy_refusal;
            let oc = Unix.out_channel_of_descr fd in
            (try
               Pf.write_frame oc
                 (Printf.sprintf "{\"reply\":\"busy\",\"retry_after_ms\":%d}"
                    t.config.retry_after_ms);
               flush oc
             with Sys_error _ | Unix.Unix_error _ -> ());
            close_out_noerr oc
          end
          else begin
            let idx = !accepted in
            incr accepted;
            let conn =
              {
                fd;
                oc = Unix.out_channel_of_descr fd;
                wlock = Mutex.create ();
                rfault = Dadu_util.Fault.fork t.config.net_fault (2 * idx);
                wfault =
                  Dadu_util.Fault.fork t.config.net_fault ((2 * idx) + 1);
                tenant = "default";
                pending = 0;
                eof = false;
                dead = false;
                closed = false;
                unflushed = false;
              }
            in
            Atomic.incr t.nconns;
            Mutex.lock t.clock;
            t.conns <- conn :: t.conns;
            Mutex.unlock t.clock;
            readers := Thread.create (reader t conn) () :: !readers
          end
      end
  done;
  (* graceful drain: stop accepting, push EOF at every reader, let the
     dispatcher finish everything already admitted, flush, then close *)
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  Option.iter unlink_quietly path;
  Mutex.lock t.clock;
  let conns = t.conns in
  Mutex.unlock t.clock;
  List.iter
    (fun c ->
      Mutex.lock c.wlock;
      (if not c.closed then
         try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
         with Unix.Unix_error _ -> ());
      Mutex.unlock c.wlock)
    conns;
  List.iter Thread.join !readers;
  begin_drain t;
  Thread.join disp;
  List.iter
    (fun c ->
      Mutex.lock c.wlock;
      close_conn c;
      Mutex.unlock c.wlock)
    conns

let render_tenants t =
  Mutex.lock t.tlock;
  let names =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tenants [])
  in
  let out =
    String.concat "\n"
      (List.map
         (fun name ->
           let tn = Hashtbl.find t.tenants name in
           Printf.sprintf "tenant %s (overloaded %d)\n%s" name
             (Atomic.get tn.overloaded)
             (Metrics.render (Metrics.snapshot tn.metrics)))
         names)
  in
  Mutex.unlock t.tlock;
  out
