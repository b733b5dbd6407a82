(* The live run: `dadu serve -j 1` as a child process, driven over a Unix
   socket by this single-threaded client.  Everything here is measured
   with tracing off. *)

open Dadu_linalg
open Dadu_kinematics

let now = Unix.gettimeofday

(* ---- the server process ----------------------------------------------- *)

type server = { mutable pid : int; argv : string array; sock : string; log : string }

let server_argv ~exe ~sock extra =
  Array.of_list ([ exe; "serve"; "--listen"; "unix:" ^ sock; "-j"; "1" ] @ extra)

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* every server started and not yet killed, so that an aborted run
   leaves no process behind *)
let running = ref []

let start s =
  if not (List.memq s !running) then running := s :: !running;
  (try Unix.unlink s.sock with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log = Unix.openfile s.log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  s.pid <- Unix.create_process s.argv.(0) s.argv null log log;
  Unix.close null;
  Unix.close log;
  let pid = s.pid in
  Wire.connect ~sock:s.sock ~alive:(fun () -> alive pid) ~timeout_s:60.

let server ~exe ~dir ~name extra =
  let sock = Filename.concat dir (name ^ ".sock") in
  { pid = -1; argv = server_argv ~exe ~sock extra; sock; log = Filename.concat dir (name ^ ".log") }

let kill s =
  if s.pid > 0 then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    s.pid <- -1
  end

let kill_all () =
  List.iter kill !running;
  running := []

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* server utime + stime in seconds, over all its threads: fields 14 and
   15 of /proc/<pid>/stat, counted after the parenthesised command name,
   in USER_HZ ticks (100 per second on Linux) *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex stat ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub stat after (String.length stat - after))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let client_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- bookkeeping ------------------------------------------------------ *)

(* every request the run attempted, and every check that failed *)
type ledger = {
  mutable attempted : int;
  mutable failures : string list;  (** newest first *)
}

let ledger () = { attempted = 0; failures = [] }
let fail l msg = l.failures <- msg :: l.failures

let check l ~chain ~target payload =
  l.attempted <- l.attempted + 1;
  match Wire.check_solved ~chain ~target payload with
  | Ok () -> true
  | Error msg ->
    fail l msg;
    false

(* [n] requests that never got a reply *)
let missing l n what =
  for _ = 1 to n do
    l.attempted <- l.attempted + 1;
    fail l (what ^ ": reply missing")
  done

(* Wait for [pending] replies, handing each to [f]; anything missing after
   [timeout_s] is a failure. *)
let await l conn ~pending ~timeout_s ~what f =
  let left = ref pending in
  let deadline = now () +. timeout_s in
  while !left > 0 && (not conn.Wire.eof) && now () < deadline do
    ignore
      (Wire.poll conn ~timeout_s:(deadline -. now ()) (fun p ->
           decr left;
           f p))
  done;
  missing l !left what

(* percentile [p] in [0, 100]; nan for no samples *)
let pct p xs = if xs = [||] then nan else Dadu_util.Stats.percentile p xs

(* set-ups per run; the median is reported *)
let setups = 5

(* restart times scatter within a run on a shared host; the median of
   this many is reported *)
let restarts = 11
let drain_timeout_s = 60.

(* one request: its id, wire payload, and the check its reply must pass *)
type req = { id : int; payload : string; check : string -> bool }

(* What a closed-loop phase measured. *)
type timed = {
  elapsed_s : float;
  completed : int;  (** replies inside the phase *)
  latency_ms : (int * float) list;  (** id, send-to-reply (infinity: failed) *)
  server_cpu_s : float;
  rss_mb : float;  (** VmHWM at the end of the phase *)
  client_cpu_s : float;
  done_s : float list;  (** completion times, from the start of the phase *)
  late_ms : float array;  (** per send: how long after the reply that freed its slot *)
}

type result = {
  setup_s : float array;  (** one per set-up *)
  restart_s : float array;  (** one per restart *)
  timed : timed;
  ledger : ledger;
  replies : (int, string) Hashtbl.t;  (** track: reply bytes by id, for the replay *)
}

(* The closed loop: [window] slots, each with one request in flight; a
   reply frees its slot and [next slot] makes the slot's next request.
   New requests stop at [seconds], or, with a [total], once that many
   have been issued (then [seconds] only caps the phase); server CPU and
   peak RSS are read then, and the window drains.  Slots drift apart in
   how many requests they have issued, so a count per slot would leave a
   tail of seconds in which only the lagging slots run. *)
let closed_loop l conn ~pid ~seconds ?(total = max_int) ~window ~next () =
  let inflight = Hashtbl.create 256 in
  let lat = ref [] and late = ref [] and done_s = ref [] in
  let issued = ref 0 in
  let issue slots ~after =
    let slots = List.filteri (fun i _ -> !issued + i < total) slots in
    issued := !issued + List.length slots;
    let reqs = List.map (fun s -> (s, next s)) slots in
    let t = now () in
    List.iter
      (fun (s, r) ->
        Hashtbl.replace inflight r.id (s, r, t);
        Option.iter (fun rt -> late := (1e3 *. (t -. rt)) :: !late) after)
      reqs;
    Wire.send conn (List.map (fun (_, r) -> r.payload) reqs)
  in
  let cpu0 = cpu_s pid and ccpu0 = client_cpu_s () in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let snapshot () =
    let t = now () in
    (t -. t0, List.length !done_s, cpu_s pid -. cpu0, peak_rss_mb pid, client_cpu_s () -. ccpu0)
  in
  issue (List.init window Fun.id) ~after:None;
  let stopped = ref None in
  let drain_until = ref infinity in
  while Hashtbl.length inflight > 0 && (not conn.Wire.eof) && now () < !drain_until do
    let timeout = if !stopped = None then Float.max 0. (t_end -. now ()) else !drain_until -. now () in
    (* every reply of one read is stamped with the read's time, so the
       client's checks of the replies before it do not count *)
    let freed = ref [] and first = ref infinity in
    ignore
      (Wire.poll conn ~timeout_s:timeout (fun payload ->
           if !first = infinity then first := now ();
           let rt = !first in
           match Option.bind (Wire.reply_id payload) (Hashtbl.find_opt inflight) with
           | None ->
             l.attempted <- l.attempted + 1;
             fail l "reply for no request in flight"
           | Some (s, r, st) ->
             Hashtbl.remove inflight r.id;
             let ok = r.check payload in
             if !stopped = None then done_s := (rt -. t0) :: !done_s;
             lat := (r.id, if ok then 1e3 *. (rt -. st) else infinity) :: !lat;
             freed := s :: !freed));
    if !stopped = None && now () >= t_end then begin
      stopped := Some (snapshot ());
      drain_until := now () +. drain_timeout_s
    end;
    if !stopped = None && !freed <> [] then issue (List.rev !freed) ~after:(Some !first)
  done;
  missing l (Hashtbl.length inflight) "closed loop";
  let elapsed_s, completed, server_cpu_s, rss_mb, client_cpu_s =
    match !stopped with Some x -> x | None -> snapshot ()
  in
  {
    elapsed_s;
    completed;
    latency_ms = List.rev !lat;
    server_cpu_s;
    rss_mb;
    client_cpu_s;
    done_s = !done_s;
    late_ms = Array.of_list (List.rev !late);
  }

(* Send [reqs] as one burst and wait for every reply. *)
let burst l conn ~what (reqs : req list) =
  let index = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace index r.id r) reqs;
  Wire.send conn (List.map (fun r -> r.payload) reqs);
  await l conn ~pending:(List.length reqs) ~timeout_s:drain_timeout_s ~what (fun payload ->
      match Option.bind (Wire.reply_id payload) (Hashtbl.find_opt index) with
      | Some r -> ignore (r.check payload)
      | None ->
        l.attempted <- l.attempted + 1;
        fail l (what ^ ": reply for no request"))

(* [windowed] sends [reqs] [window] at a time, closed loop *)
let rec windowed l conn ~what ~window reqs =
  if reqs <> [] then begin
    let now_ = List.filteri (fun i _ -> i < window) reqs in
    let rest = List.filteri (fun i _ -> i >= window) reqs in
    burst l conn ~what now_;
    windowed l conn ~what ~window rest
  end

let solve_req l ~chain ~robot ~id target =
  {
    id;
    payload = Gen.solve_payload ~id ~robot target;
    check = (fun p -> check l ~chain ~target p);
  }

(* One set-up, timed from spawning the server; [prepare] runs untimed
   before the spawn. *)
let timed_setup s ~prepare ~setup =
  prepare ();
  let t0 = now () in
  let conn = start s in
  setup conn;
  (now () -. t0, conn)

(* [n] set-ups in a row; every server but the last is killed *)
let timed_setups n s ~prepare ~setup =
  let conn = ref None in
  let times =
    Array.init n (fun _ ->
        Option.iter (fun c -> kill s; Wire.close c) !conn;
        let t, c = timed_setup s ~prepare ~setup in
        conn := Some c;
        t)
  in
  (times, Option.get !conn)

(* [restarts] kill -9 / respawn cycles, each timed from the kill until
   [recover] has seen the server answer again; the last server is
   killed too. *)
let timed_restarts s conn ~recover =
  let conn = ref conn in
  let times =
    Array.init restarts (fun _ ->
        let t0 = now () in
        kill s;
        Wire.close !conn;
        conn := start s;
        recover !conn;
        now () -. t0)
  in
  kill s;
  Wire.close !conn;
  times

(* ---- track ------------------------------------------------------------- *)

let opened_req l ~resumed ~waypoints sidx =
  let id = 1_000_000_000 + sidx in
  let session = Gen.session_name sidx in
  {
    id;
    payload = Gen.open_payload ~id ~session ~robot:Gen.track_robot;
    check =
      (fun p ->
        l.attempted <- l.attempted + 1;
        let ok =
          match Dadu_util.Json.of_string p with
          | Ok j ->
            Wire.str_member "reply" j = Some "opened"
            && Wire.bool_member "resumed" j = Some resumed
            && Wire.int_member "waypoints" j = Some waypoints
          | Error _ -> false
        in
        if not ok then fail l (Printf.sprintf "open %s: unexpected reply %s" session p);
        ok);
  }

(* [keep] waypoints per session keep their reply bytes, for the replay
   to compare against *)
let track ~exe ~dir ~seed ~seconds ~keep =
  let l = ledger () in
  let chain = Robots.eval_chain ~dof:Gen.track_dof in
  let sessions = Gen.track_sessions_of seed in
  let n = Array.length sessions in
  let journal = Filename.concat dir "track.journal" in
  let s = server ~exe ~dir ~name:"track" [ "--journal"; journal ] in
  let kidx = Array.make n 0 in
  let last = Array.make n (-1, "", Vec3.make 0. 0. 0.) in
  let replies = Hashtbl.create 4096 in
  let waypoint sidx =
    let k = kidx.(sidx) in
    kidx.(sidx) <- k + 1;
    let target = Gen.waypoint sessions.(sidx) k in
    let id = Gen.track_id ~session:sidx ~k in
    {
      id;
      payload = Gen.waypoint_payload ~id ~session:(Gen.session_name sidx) ~seq:k target;
      check =
        (fun p ->
          last.(sidx) <- (k, p, target);
          if k < keep then Hashtbl.replace replies id p;
          check l ~chain ~target p);
    }
  in
  let prepare () =
    (try Sys.remove journal with Sys_error _ -> ());
    Array.fill kidx 0 n 0
  in
  let setup conn =
    burst l conn ~what:"track open" (List.init n (opened_req l ~resumed:false ~waypoints:0));
    for _ = 1 to Gen.track_warmup do
      burst l conn ~what:"track warm-up" (List.init n waypoint)
    done
  in
  (* The restart leg: the first set-up's server runs a fixed number of
     waypoints, so every run's restarts replay a journal of the same
     length, whatever the timed phase's length.  After each
     kill every session re-opens (resumed) and resends its last waypoint
     with its seq: the reply must be the pre-kill bytes. *)
  let leg_setup_s, conn = timed_setup s ~prepare ~setup in
  ignore
    (closed_loop l conn ~pid:s.pid ~seconds:drain_timeout_s
       ~total:(n * Gen.track_restart_waypoints) ~window:n ~next:waypoint ());
  let recover conn =
    burst l conn ~what:"track restart"
      (List.concat_map
         (fun sidx ->
           let k, bytes, target = last.(sidx) in
           let id = Gen.track_id ~session:sidx ~k in
           [
             opened_req l ~resumed:true ~waypoints:(k + 1) sidx;
             {
               id;
               payload = Gen.waypoint_payload ~id ~session:(Gen.session_name sidx) ~seq:k target;
               check =
                 (fun p ->
                   l.attempted <- l.attempted + 1;
                   if p <> bytes then
                     fail l (Printf.sprintf "restart: %s waypoint %d reply bytes differ" (Gen.session_name sidx) k);
                   p = bytes);
             };
           ])
         (List.init n Fun.id))
  in
  (* flush the journal's dirty pages first, so that writeback does not
     overlap the timed restarts *)
  let fd = Unix.openfile journal [ Unix.O_RDONLY ] 0 in
  Unix.fsync fd;
  Unix.close fd;
  let restart_s = timed_restarts s conn ~recover in
  (* the other set-ups; the last server runs the timed phase, a fixed
     number of waypoints ([seconds] caps it at twice its nominal
     length) *)
  let setup_s, conn = timed_setups (setups - 1) s ~prepare ~setup in
  let timed =
    closed_loop l conn ~pid:s.pid ~seconds:(2. *. seconds)
      ~total:(Gen.track_timed_waypoints ~seconds) ~window:n ~next:waypoint ()
  in
  kill s;
  Wire.close conn;
  { setup_s = Array.append [| leg_setup_s |] setup_s; restart_s; timed; ledger = l; replies }

(* ---- plan ------------------------------------------------------------- *)

(* the library is built untimed, before the run, as `dadu posture-build`
   builds one offline *)
let posture_build ~exe ~dir ~seed =
  let lib = Filename.concat dir "plan.lib" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "posture-build.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process exe
      [| exe; "posture-build"; "-r"; Gen.plan_robot; "-k"; string_of_int Gen.plan_library_postures;
         "--seed"; string_of_int (Gen.plan_library_seed seed); "-o"; lib |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "dadu posture-build failed");
  lib

let plan ~exe ~dir ~seed ~seconds =
  let l = ledger () in
  let chain = Robots.eval_chain ~dof:Gen.plan_dof in
  let robot = Gen.plan_robot in
  let lib = posture_build ~exe ~dir ~seed in
  let s =
    server ~exe ~dir ~name:"plan"
      [ "--seed-library"; lib; "--seed-candidates"; string_of_int Gen.plan_candidates ]
  in
  let target = Gen.plan_targets seed in
  let setup conn =
    windowed l conn ~what:"plan warm-up" ~window:Gen.plan_window
      (List.mapi
         (fun i t -> solve_req l ~chain ~robot ~id:(1_000_000 + i) t)
         (Array.to_list (Lazy.force Gen.plan_warmup_targets)))
  in
  let setup_s, conn = timed_setups setups s ~prepare:ignore ~setup in
  let issued = ref 0 in
  let next _slot =
    let i = !issued in
    incr issued;
    solve_req l ~chain ~robot ~id:i (target i)
  in
  let timed = closed_loop l conn ~pid:s.pid ~seconds ~window:Gen.plan_window ~next () in
  (* a plan server has no session state: it is back once the respawned
     process has loaded its library and answers *)
  let recover conn =
    Wire.send conn [ "{\"op\":\"ping\"}" ];
    await l conn ~pending:1 ~timeout_s:drain_timeout_s ~what:"plan restart" (fun p ->
        l.attempted <- l.attempted + 1;
        if p <> "{\"reply\":\"pong\"}" then fail l ("plan restart: unexpected reply " ^ p))
  in
  let restart_s = timed_restarts s conn ~recover in
  { setup_s; restart_s; timed; ledger = l; replies = Hashtbl.create 1 }
