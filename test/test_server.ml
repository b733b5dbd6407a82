(* Tests for the persistent streaming server: wire framing, client
   scripts, listen-address parsing, and live-socket behaviour (sessions,
   typed error replies, load shedding, resume, graceful drain). *)

open Dadu_service
module Json = Dadu_util.Json

let qcheck = QCheck_alcotest.to_alcotest

(* ---- listen addresses ---- *)

let test_listen_of_string () =
  let check name expect got =
    Alcotest.(check bool) name true (got = expect)
  in
  check "unix:" (Ok (Server.Unix_sock "/tmp/x.sock"))
    (Server.listen_of_string "unix:/tmp/x.sock");
  check "bare path" (Ok (Server.Unix_sock "/tmp/y.sock"))
    (Server.listen_of_string "/tmp/y.sock");
  check "tcp" (Ok (Server.Tcp ("localhost", 7001)))
    (Server.listen_of_string "tcp:localhost:7001");
  check "tcp empty host" (Ok (Server.Tcp ("127.0.0.1", 7001)))
    (Server.listen_of_string "tcp::7001");
  Alcotest.(check bool) "tcp bad port errors" true
    (Result.is_error (Server.listen_of_string "tcp:host:notaport"));
  Alcotest.(check bool) "tcp port 0 errors" true
    (Result.is_error (Server.listen_of_string "tcp:host:0"));
  Alcotest.(check bool) "empty errors" true
    (Result.is_error (Server.listen_of_string ""))

(* ---- wire framing ---- *)

(* Frames are read back through the descriptor reader the server uses. *)
let with_file_reader path f =
  let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> f (Problem_file.frame_reader fd))

let with_written_file write f =
  let path = Filename.temp_file "dadu_frames" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path write;
      with_file_reader path f)

let with_frames_file payloads f =
  with_written_file
    (fun oc -> List.iter (Problem_file.write_frame oc) payloads)
    f

let test_framing_roundtrip () =
  let payloads = [ "{}"; ""; String.make 4096 'x'; "{\"a\":[1,2,3]}" ] in
  with_frames_file payloads (fun rd ->
      List.iter
        (fun expect ->
          match Problem_file.read_frame_fd rd with
          | Problem_file.Frame got ->
            Alcotest.(check string) "payload round-trips" expect got
          | Problem_file.Eof -> Alcotest.fail "unexpected EOF"
          | Problem_file.Timed_out _ -> Alcotest.fail "unexpected timeout"
          | Problem_file.Frame_error msg -> Alcotest.fail msg)
        payloads;
      Alcotest.(check bool) "clean EOF after the last frame" true
        (Problem_file.read_frame_fd rd = Problem_file.Eof))

let read_error text =
  with_written_file
    (fun oc -> Out_channel.output_string oc text)
    Problem_file.read_frame_fd

let test_framing_errors () =
  (match read_error "nonsense\n{}" with
  | Problem_file.Frame_error msg ->
    Alcotest.(check bool) "malformed length line named" true
      (Astring.String.is_infix ~affix:"malformed frame length" msg)
  | _ -> Alcotest.fail "expected an error");
  (match read_error "10\n{}" with
  | Problem_file.Frame_error "truncated frame (eof)" -> ()
  | _ -> Alcotest.fail "expected truncated-payload error");
  (match read_error "2\n{}X" with
  | Problem_file.Frame_error "missing frame terminator" -> ()
  | _ -> Alcotest.fail "expected missing-terminator error");
  match read_error (Printf.sprintf "%d\n" (Problem_file.max_frame_bytes + 1)) with
  | Problem_file.Frame_error msg ->
    Alcotest.(check bool) "oversized length rejected before allocation" true
      (Astring.String.is_infix ~affix:"out of range" msg)
  | _ -> Alcotest.fail "expected an out-of-range error"

let test_framing_property =
  QCheck.Test.make ~name:"arbitrary payloads frame and unframe" ~count:50
    QCheck.(string_of_size (Gen.int_range 0 2000))
    (fun payload ->
      with_frames_file [ payload ] (fun rd ->
          Problem_file.read_frame_fd rd = Problem_file.Frame payload))

(* ---- client scripts ---- *)

let test_script_parses () =
  let text =
    "# trajectory demo\n\
     hello acme\n\
     open s1 eval:30\n\
     waypoint s1 4.0,1.0,2.0  # first\n\
     close s1\n\
     robot eval:12\n\
     solve 3.0,1.0,1.0 deadline=0.5\n\
     solve 3.0,1.0,1.0 theta0=0.1,0.2\n\
     ping\n\
     stats\n\
     raw {\"op\":\"nonsense\"\n"
  in
  match Problem_file.parse_script text with
  | Error msg -> Alcotest.fail msg
  | Ok ops ->
    Alcotest.(check int) "op count" 9 (Array.length ops);
    (match ops.(0) with
    | Problem_file.Hello { tenant = "acme" } -> ()
    | _ -> Alcotest.fail "expected hello acme");
    (match ops.(2) with
    | Problem_file.Waypoint { session = "s1"; x; _ } ->
      Alcotest.(check (float 0.)) "waypoint x" 4.0 x
    | _ -> Alcotest.fail "expected waypoint");
    (match ops.(4) with
    | Problem_file.Solve { robot = "eval:12"; deadline_s = Some d; theta0 = None; _ }
      ->
      Alcotest.(check (float 0.)) "deadline" 0.5 d
    | _ -> Alcotest.fail "expected solve with deadline");
    (match ops.(5) with
    | Problem_file.Solve { theta0 = Some [ 0.1; 0.2 ]; deadline_s = None; _ } -> ()
    | _ -> Alcotest.fail "expected solve with theta0");
    match ops.(8) with
    | Problem_file.Raw "{\"op\":\"nonsense\"" -> ()
    | _ -> Alcotest.fail "expected raw payload verbatim"

let test_script_errors () =
  (match Problem_file.parse_script "hello a\nsolve 1,2,3\n" with
  | Error msg ->
    Alcotest.(check bool) "solve before robot carries line 2" true
      (Astring.String.is_prefix ~affix:"line 2:" msg)
  | Ok _ -> Alcotest.fail "expected an error");
  match Problem_file.parse_script "waypoint s1 nonsense\n" with
  | Error msg ->
    Alcotest.(check bool) "bad coords carry line 1" true
      (Astring.String.is_prefix ~affix:"line 1:" msg)
  | Ok _ -> Alcotest.fail "expected an error"

(* ---- live server harness ----

   An in-process server on a temp Unix socket, a raw framed client, and
   tiny helpers for JSON replies.  The server runs on its own thread;
   [stop] + join is the graceful-drain path the CI job drives with
   SIGTERM (the handler calls exactly this [Server.stop]). *)

let with_server ?(config = Server.default_config) f =
  let path = Filename.temp_file "dadu_srv" ".sock" in
  Sys.remove path;
  let server = Server.create ~config () in
  let runner =
    Thread.create (fun () -> Server.run server ~listen:(Server.Unix_sock path)) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join runner;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f server path)

let connect path =
  let rec go tries =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> (fd, Problem_file.frame_reader fd, Unix.out_channel_of_descr fd)
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when tries < 100
      ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Thread.delay 0.02;
      go (tries + 1)
  in
  go 0

let send oc payload =
  Problem_file.write_frame oc payload;
  flush oc

let recv rd =
  match Problem_file.read_frame_fd rd with
  | Problem_file.Frame payload ->
    (match Json.of_string payload with
    | Ok json -> (payload, json)
    | Error msg -> Alcotest.fail (Printf.sprintf "bad reply %S: %s" payload msg))
  | Problem_file.Eof -> Alcotest.fail "unexpected EOF from server"
  | Problem_file.Timed_out _ -> Alcotest.fail "unexpected read timeout"
  | Problem_file.Frame_error msg -> Alcotest.fail msg

let str_member key json =
  Option.bind (Json.member key json) Json.to_str

let bool_member key json =
  match Json.member key json with Some (Json.Bool b) -> Some b | _ -> None

let int_member key json =
  Option.bind (Json.member key json) (fun j ->
      Option.map int_of_float (Json.to_float j))

let reply_kind json =
  match str_member "reply" json with
  | Some k -> k
  | None -> Alcotest.fail "reply without a reply field"

let expect_kind name kind (_, json) =
  Alcotest.(check string) name kind (reply_kind json);
  json

let test_live_session_happy_path () =
  with_server @@ fun _server path ->
  let fd, rd, oc = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  send oc "{\"op\":\"hello\",\"tenant\":\"t1\"}";
  ignore (expect_kind "hello" "hello" (recv rd));
  send oc "{\"op\":\"open\",\"id\":0,\"session\":\"s\",\"robot\":\"eval:30\"}";
  let opened = expect_kind "opened" "opened" (recv rd) in
  Alcotest.(check (option int)) "dof" (Some 30) (int_member "dof" opened);
  Alcotest.(check (option bool)) "fresh" (Some false) (bool_member "resumed" opened);
  for i = 0 to 4 do
    send oc
      (Printf.sprintf
         "{\"op\":\"waypoint\",\"id\":%d,\"session\":\"s\",\"target\":[4.0,%.17g,2.0]}"
         (i + 1)
         (1.0 +. (0.02 *. float_of_int i)))
  done;
  let warm = ref 0 in
  for i = 0 to 4 do
    let solved = expect_kind "solved" "solved" (recv rd) in
    Alcotest.(check (option int))
      (Printf.sprintf "id %d in stream order" (i + 1))
      (Some (i + 1)) (int_member "id" solved);
    Alcotest.(check (option int)) "ordinal" (Some i) (int_member "ordinal" solved);
    Alcotest.(check (option string)) "status" (Some "converged")
      (str_member "status" solved);
    if bool_member "session_hit" solved = Some true then incr warm
  done;
  Alcotest.(check int) "all but the first waypoint warm" 4 !warm;
  send oc "{\"op\":\"close\",\"id\":9,\"session\":\"s\"}";
  let closed = expect_kind "closed" "closed" (recv rd) in
  Alcotest.(check (option int)) "accepted waypoints" (Some 5)
    (int_member "waypoints" closed)

let test_live_malformed_payload_keeps_connection () =
  with_server @@ fun _server path ->
  let fd, rd, oc = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  send oc "{\"op\":\"nonsense\"";
  let err = expect_kind "malformed JSON gets a typed error" "error" (recv rd) in
  Alcotest.(check bool) "message mentions the parse" true
    (match str_member "message" err with
    | Some m -> Astring.String.is_infix ~affix:"malformed payload" m
    | None -> false);
  send oc "{\"op\":\"jump\"}";
  ignore (expect_kind "unknown op gets a typed error" "error" (recv rd));
  send oc "{\"op\":\"waypoint\",\"id\":1,\"session\":\"ghost\",\"target\":[1,1,1]}";
  ignore (expect_kind "unknown session gets a typed error" "error" (recv rd));
  (* the stream stayed synchronized through all three errors *)
  send oc "{\"op\":\"ping\"}";
  ignore (expect_kind "connection still alive" "pong" (recv rd))

let test_live_queue_full_sheds () =
  with_server
    ~config:{ Server.default_config with Server.queue_capacity = 0 }
  @@ fun _server path ->
  let fd, rd, oc = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  send oc
    "{\"op\":\"solve\",\"id\":0,\"robot\":\"eval:12\",\"target\":[3.0,1.0,1.0]}";
  let shed = expect_kind "zero-capacity queue sheds" "overloaded" (recv rd) in
  Alcotest.(check (option int)) "shed reply names the request" (Some 0)
    (int_member "id" shed);
  send oc "{\"op\":\"stats\"}";
  let stats = expect_kind "stats" "stats" (recv rd) in
  Alcotest.(check (option int)) "shed counted per tenant" (Some 1)
    (int_member "overloaded" stats);
  Alcotest.(check (option int)) "nothing dispatched" (Some 0)
    (int_member "requests" stats)

let test_live_session_resumes_across_reconnect () =
  with_server @@ fun _server path ->
  let solve_waypoint rd oc i =
    send oc
      (Printf.sprintf
         "{\"op\":\"waypoint\",\"id\":%d,\"session\":\"r\",\"target\":[4.0,%.17g,2.0]}"
         i
         (1.0 +. (0.02 *. float_of_int i)));
    expect_kind "solved" "solved" (recv rd)
  in
  let fd, rd, oc = connect path in
  send oc "{\"op\":\"open\",\"id\":0,\"session\":\"r\",\"robot\":\"eval:30\"}";
  ignore (expect_kind "opened" "opened" (recv rd));
  ignore (solve_waypoint rd oc 1);
  (* drop the connection without closing the session *)
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let fd2, rd2, oc2 = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
  @@ fun () ->
  send oc2 "{\"op\":\"open\",\"id\":0,\"session\":\"r\",\"robot\":\"eval:30\"}";
  let opened = expect_kind "opened" "opened" (recv rd2) in
  Alcotest.(check (option bool)) "session resumed" (Some true)
    (bool_member "resumed" opened);
  let solved = solve_waypoint rd2 oc2 1 in
  Alcotest.(check (option int)) "ordinal continues the trajectory" (Some 1)
    (int_member "ordinal" solved);
  Alcotest.(check (option bool)) "first waypoint after resume is warm"
    (Some true)
    (bool_member "session_hit" solved);
  send oc2 "{\"op\":\"open\",\"id\":2,\"session\":\"r\",\"robot\":\"eval:12\"}";
  ignore (expect_kind "resume with another robot is refused" "error" (recv rd2))

(* A resend that arrives while the original waypoint is still being
   solved is answered with the original's reply bytes once it commits —
   not with a stale error, and not with a second solve. *)
let test_live_resend_in_flight () =
  let open_op = "{\"op\":\"open\",\"id\":0,\"session\":\"s\",\"robot\":\"eval:100\"}" in
  let waypoint =
    "{\"op\":\"waypoint\",\"id\":1,\"session\":\"s\",\"seq\":0,\"target\":[1.0,1.0,40.0]}"
  in
  let reference =
    with_server @@ fun _server path ->
    let fd, rd, oc = connect path in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    send oc open_op;
    ignore (expect_kind "opened" "opened" (recv rd));
    send oc waypoint;
    fst (recv rd)
  in
  with_server @@ fun _server path ->
  let fd, rd, oc = connect path in
  send oc open_op;
  ignore (expect_kind "opened" "opened" (recv rd));
  send oc waypoint;
  (* the reader answers in frame order: the pong means the waypoint was
     accepted; drop the connection with it in flight and resend at once *)
  send oc "{\"op\":\"ping\"}";
  ignore (expect_kind "pong" "pong" (recv rd));
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let fd2, rd2, oc2 = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
  @@ fun () ->
  send oc2 open_op;
  let opened = expect_kind "opened" "opened" (recv rd2) in
  Alcotest.(check (option int)) "the waypoint was accepted" (Some 1)
    (int_member "waypoints" opened);
  send oc2 waypoint;
  Alcotest.(check string) "resend answered with the uninterrupted reply"
    reference (fst (recv rd2))

let test_live_drain_flushes_in_flight () =
  let path = Filename.temp_file "dadu_srv" ".sock" in
  Sys.remove path;
  let server = Server.create () in
  let runner =
    Thread.create (fun () -> Server.run server ~listen:(Server.Unix_sock path)) ()
  in
  let fd, rd, oc = connect path in
  let n = 16 in
  send oc "{\"op\":\"open\",\"id\":0,\"session\":\"d\",\"robot\":\"eval:30\"}";
  ignore (expect_kind "opened" "opened" (recv rd));
  for i = 1 to n do
    send oc
      (Printf.sprintf
         "{\"op\":\"waypoint\",\"id\":%d,\"session\":\"d\",\"target\":[4.0,%.17g,2.0]}"
         i
         (1.0 +. (0.01 *. float_of_int i)))
  done;
  (* stop immediately: every admitted waypoint must still be answered *)
  Server.stop server;
  let solved = ref 0 in
  (try
     while !solved < n do
       ignore (expect_kind "solved" "solved" (recv rd));
       incr solved
     done
   with _ -> ());
  Alcotest.(check int) "drain answered every admitted waypoint" n !solved;
  Alcotest.(check bool) "then EOF" true (Problem_file.read_frame_fd rd = Problem_file.Eof);
  Thread.join runner;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (try Sys.remove path with Sys_error _ -> ());
  Alcotest.(check bool) "summary renders after drain" true
    (String.length (Server.render_tenants server) > 0)

(* The determinism gate in miniature: the same waypoint stream against
   pools 1/2/4 produces byte-identical solve replies (CI runs the same
   comparison with cmp on dump files). *)
let test_live_replies_byte_identical_across_pools () =
  let stream ~pool_size =
    let config =
      {
        Server.default_config with
        Server.service = { Service.default_config with Service.chunk = 8 };
      }
    in
    let path = Filename.temp_file "dadu_srv" ".sock" in
    Sys.remove path;
    let pool =
      if pool_size > 1 then Some (Dadu_util.Domain_pool.create pool_size)
      else None
    in
    let server = Server.create ?pool ~config () in
    let runner =
      Thread.create
        (fun () -> Server.run server ~listen:(Server.Unix_sock path))
        ()
    in
    Fun.protect
      ~finally:(fun () ->
        Server.stop server;
        Thread.join runner;
        Option.iter Dadu_util.Domain_pool.shutdown pool;
        try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let fd, rd, oc = connect path in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            send oc "{\"op\":\"open\",\"id\":0,\"session\":\"m\",\"robot\":\"eval:30\"}";
            ignore (recv rd);
            for i = 1 to 6 do
              send oc
                (Printf.sprintf
                   "{\"op\":\"waypoint\",\"id\":%d,\"session\":\"m\",\"target\":[4.0,%.17g,2.0]}"
                   i
                   (1.0 +. (0.02 *. float_of_int i)))
            done;
            List.init 6 (fun _ -> fst (recv rd))))
  in
  let reference = stream ~pool_size:1 in
  List.iter
    (fun pool_size ->
      Alcotest.(check (list string))
        (Printf.sprintf "pool %d" pool_size)
        reference (stream ~pool_size))
    [ 2; 4 ]

(* Regression: a half-written frame (length line sent, payload never
   completed) used to park the blocking reader forever, wedging the
   connection slot.  With a frame deadline armed the connection is
   reaped, the timeout is counted, and the listener keeps serving. *)
let test_live_half_written_frame_reaped () =
  with_server
    ~config:{ Server.default_config with Server.frame_timeout_s = Some 0.2 }
  @@ fun _server path ->
  let fd, rd, oc = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  output_string oc "64\n{\"op\":\"pi";
  flush oc;
  let err = expect_kind "stalled frame gets a typed error" "error" (recv rd) in
  Alcotest.(check (option string)) "error names the frame deadline"
    (Some "read timeout: frame incomplete")
    (str_member "message" err);
  Alcotest.(check bool) "then the connection is reaped" true
    (Problem_file.read_frame_fd rd = Problem_file.Eof);
  let fd2, rd2, oc2 = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
  @@ fun () ->
  send oc2 "{\"op\":\"ping\"}";
  ignore (expect_kind "listener still serving" "pong" (recv rd2));
  send oc2 "{\"op\":\"stats\"}";
  let stats = expect_kind "stats" "stats" (recv rd2) in
  Alcotest.(check bool) "timeout counted" true
    (match int_member "timeouts" stats with Some n -> n >= 1 | None -> false)

(* slow-loris defense: a connection that opens and then says nothing is
   closed once the idle deadline passes *)
let test_live_idle_timeout () =
  with_server
    ~config:{ Server.default_config with Server.idle_timeout_s = Some 0.15 }
  @@ fun _server path ->
  let fd, rd, _oc = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let err = expect_kind "idle connection gets a typed error" "error" (recv rd) in
  Alcotest.(check (option string)) "error names the idle deadline"
    (Some "idle timeout")
    (str_member "message" err);
  Alcotest.(check bool) "then the connection is closed" true
    (Problem_file.read_frame_fd rd = Problem_file.Eof);
  Alcotest.(check bool) "closed by the deadline, not by test teardown" true
    (Unix.gettimeofday () -. t0 < 5.0)

(* the connection cap refuses with a typed busy reply (plus back-off
   hint) instead of hanging the dialer, and the slot frees on close *)
let test_live_connection_cap_busy () =
  with_server
    ~config:{ Server.default_config with Server.max_connections = 1 }
  @@ fun _server path ->
  let fd1, rd1, oc1 = connect path in
  send oc1 "{\"op\":\"ping\"}";
  ignore (expect_kind "first connection admitted" "pong" (recv rd1));
  let fd2, rd2, _oc2 = connect path in
  let busy = expect_kind "over the cap refuses" "busy" (recv rd2) in
  Alcotest.(check (option int)) "busy carries a back-off hint" (Some 50)
    (int_member "retry_after_ms" busy);
  Alcotest.(check bool) "refused connection is closed" true
    (Problem_file.read_frame_fd rd2 = Problem_file.Eof);
  (try Unix.close fd2 with Unix.Unix_error _ -> ());
  send oc1 "{\"op\":\"stats\"}";
  let stats = expect_kind "stats" "stats" (recv rd1) in
  Alcotest.(check bool) "refusal counted" true
    (match int_member "busy" stats with Some n -> n >= 1 | None -> false);
  (try Unix.close fd1 with Unix.Unix_error _ -> ());
  (* the slot frees once the reader notices the close; retry until the
     next dialer gets a pong instead of busy.  A refusal can close the
     socket before the ping is written or read back. *)
  let rec admitted tries =
    let fd3, rd3, oc3 = connect path in
    let pong =
      Fun.protect
        ~finally:(fun () -> try Unix.close fd3 with Unix.Unix_error _ -> ())
      @@ fun () ->
      match send oc3 "{\"op\":\"ping\"}" with
      | exception Sys_error _ -> false
      | () ->
        (match Problem_file.read_frame_fd rd3 with
        | Problem_file.Frame payload ->
          (match Json.of_string payload with
          | Ok json -> reply_kind json = "pong"
          | Error _ -> false)
        | Problem_file.Eof | Problem_file.Timed_out _
        | Problem_file.Frame_error _ ->
          false
        | exception (Sys_error _ | Unix.Unix_error _) -> false)
    in
    if pong then true
    else if tries < 100 then begin
      Thread.delay 0.02;
      admitted (tries + 1)
    end
    else false
  in
  Alcotest.(check bool) "slot freed after close" true (admitted 0)

(* deadline-aware shedding: with a per-job cost estimate configured, a
   solve whose deadline cannot be met even at the queue head is shed
   up front with retry_after, while a feasible deadline is admitted *)
let test_live_deadline_shed () =
  with_server
    ~config:{ Server.default_config with Server.est_job_ms = 10_000. }
  @@ fun _server path ->
  let fd, rd, oc = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  send oc
    "{\"op\":\"solve\",\"id\":7,\"robot\":\"eval:12\",\"target\":[3.0,1.0,1.0],\"deadline\":0.001}";
  let shed = expect_kind "infeasible deadline shed up front" "overloaded" (recv rd) in
  Alcotest.(check (option int)) "shed names the request" (Some 7)
    (int_member "id" shed);
  Alcotest.(check (option int)) "shed carries retry_after" (Some 50)
    (int_member "retry_after_ms" shed);
  send oc
    "{\"op\":\"solve\",\"id\":8,\"robot\":\"eval:12\",\"target\":[3.0,1.0,1.0],\"deadline\":60.0}";
  ignore (expect_kind "feasible deadline admitted" "solved" (recv rd));
  send oc "{\"op\":\"stats\"}";
  let stats = expect_kind "stats" "stats" (recv rd) in
  Alcotest.(check (option int)) "deadline shed counted" (Some 1)
    (int_member "retry_after_sheds" stats);
  Alcotest.(check (option int)) "also visible as overloaded" (Some 1)
    (int_member "overloaded" stats)

(* The crash-safety gate in miniature (CI runs the same comparison with
   kill -9 and cmp): a trajectory interrupted mid-stream, with the
   server restarted from its journal, produces — resends and all —
   exactly the reply bytes of an uninterrupted run.  Resent committed
   waypoints are answered from the journal-fed reply ring; the next
   fresh waypoint warm-starts from the journal-restored seed. *)
let test_live_journal_restart_byte_identical () =
  let journal = Filename.temp_file "dadu_jrnl" ".wal" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  let wp oc i seq =
    send oc
      (Printf.sprintf
         "{\"op\":\"waypoint\",\"id\":%d,\"session\":\"j\",\"seq\":%d,\"target\":[4.0,%.17g,2.0]}"
         i seq
         (1.0 +. (0.02 *. float_of_int i)))
  in
  let open_session rd oc =
    send oc "{\"op\":\"open\",\"id\":0,\"session\":\"j\",\"robot\":\"eval:30\"}";
    expect_kind "opened" "opened" (recv rd)
  in
  (* uninterrupted reference: no journal, four waypoints straight through *)
  let reference =
    with_server @@ fun _server path ->
    let fd, rd, oc = connect path in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    ignore (open_session rd oc);
    List.init 4 (fun i ->
        wp oc (i + 1) i;
        fst (recv rd))
  in
  let config = { Server.default_config with Server.journal = Some journal } in
  (* leg A: two waypoints commit, then the connection (and server) dies *)
  let legA =
    with_server ~config @@ fun _server path ->
    let fd, rd, oc = connect path in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let opened = open_session rd oc in
    Alcotest.(check (option bool)) "fresh open" (Some false)
      (bool_member "resumed" opened);
    List.init 2 (fun i ->
        wp oc (i + 1) i;
        fst (recv rd))
  in
  (* leg B: a fresh server replays the journal; the client re-opens,
     resends both committed waypoints, then continues the trajectory *)
  let legB =
    with_server ~config @@ fun server path ->
    Alcotest.(check bool) "journal replayed clean" true
      (Server.journal_recovery server = None);
    let fd, rd, oc = connect path in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let opened = open_session rd oc in
    Alcotest.(check (option bool)) "restart resumes the session" (Some true)
      (bool_member "resumed" opened);
    Alcotest.(check (option int)) "committed count carried over" (Some 2)
      (int_member "waypoints" opened);
    let replies =
      List.init 4 (fun i ->
          wp oc (i + 1) i;
          fst (recv rd))
    in
    (match Json.of_string (List.nth replies 2) with
    | Ok j ->
      Alcotest.(check (option bool)) "first fresh waypoint is warm"
        (Some true) (bool_member "session_hit" j)
    | Error msg -> Alcotest.fail msg);
    send oc "{\"op\":\"stats\"}";
    let stats = expect_kind "stats" "stats" (recv rd) in
    Alcotest.(check bool) "replays counted" true
      (match int_member "journal_replays" stats with
      | Some n -> n >= 1
      | None -> false);
    replies
  in
  Alcotest.(check (list string)) "leg A matches the reference prefix"
    (List.filteri (fun i _ -> i < 2) reference)
    legA;
  Alcotest.(check (list string))
    "resumed run byte-identical to the uninterrupted run" reference legB

(* Restart from a multi-MB journal, so the streaming replay crosses its
   read buffer many times: 6 gap-free sessions of 300 commits with ~3 KB
   replies, written with [Journal.append] the way the dispatcher writes
   them.  Every session re-opens resumed at its count; resends of its
   last 128 ordinals return the journaled bytes, and the 129th one back
   is stale. *)
let test_live_restart_multi_mb_journal () =
  let journal = Filename.temp_file "dadu_jrnl" ".wal" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  let sessions = 6 and commits = 300 in
  let chain = Dadu_kinematics.Robots.eval_chain ~dof:12 in
  let name s = Printf.sprintf "m%d" s in
  let reply s o =
    Printf.sprintf "{\"reply\":\"solved\",\"session\":%S,\"ordinal\":%d,\"pad\":%S}"
      (name s) o
      (String.make (2_500 + (((s * 7) + (o * 13)) mod 900)) (Char.chr (97 + ((s + o) mod 26))))
  in
  (match Journal.open_ journal with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Journal.pp_load_error e)
  | Ok (j, _, _) ->
    for s = 0 to sessions - 1 do
      Journal.append j
        (Journal.Opened
           { session = name s; robot = "eval:12";
             chain_fp = Dadu_kinematics.Chain.fingerprint chain; dof = 12 })
    done;
    for o = 0 to commits - 1 do
      for s = 0 to sessions - 1 do
        Journal.append j
          (Journal.Committed
             { session = name s; ordinal = o;
               theta = Some (Array.init 12 (fun i -> float_of_int (i + o) /. 97.));
               reply = reply s o })
      done
    done;
    Journal.close j);
  Alcotest.(check bool) "the journal spans several read buffers" true
    ((Unix.stat journal).Unix.st_size > 5 * (1 lsl 20));
  let config = { Server.default_config with Server.journal = Some journal } in
  with_server ~config @@ fun server path ->
  Alcotest.(check bool) "journal replayed clean" true
    (Server.journal_recovery server = None);
  let fd, rd, oc = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  for s = 0 to sessions - 1 do
    send oc
      (Printf.sprintf
         "{\"op\":\"open\",\"id\":0,\"session\":%S,\"robot\":\"eval:12\"}"
         (name s));
    let opened = expect_kind "opened" "opened" (recv rd) in
    Alcotest.(check (option bool)) "resumed" (Some true)
      (bool_member "resumed" opened);
    Alcotest.(check (option int)) "count" (Some commits)
      (int_member "waypoints" opened);
    let resend o =
      send oc
        (Printf.sprintf
           "{\"op\":\"waypoint\",\"id\":%d,\"session\":%S,\"seq\":%d,\"target\":[4.0,1.0,2.0]}"
           o (name s) o);
      recv rd
    in
    for o = commits - 128 to commits - 1 do
      Alcotest.(check string)
        (Printf.sprintf "%s ordinal %d replayed verbatim" (name s) o)
        (reply s o)
        (fst (resend o))
    done;
    let stale = expect_kind "129th back" "error" (resend (commits - 129)) in
    Alcotest.(check bool) "typed stale" true
      (match str_member "message" stale with
      | Some m -> Astring.String.is_prefix ~affix:"stale waypoint seq" m
      | None -> false)
  done

let () =
  Alcotest.run "dadu_server"
    [
      ( "listen",
        [ Alcotest.test_case "listen_of_string" `Quick test_listen_of_string ] );
      ( "framing",
        [
          Alcotest.test_case "round-trip" `Quick test_framing_roundtrip;
          Alcotest.test_case "errors" `Quick test_framing_errors;
          qcheck test_framing_property;
        ] );
      ( "script",
        [
          Alcotest.test_case "parses" `Quick test_script_parses;
          Alcotest.test_case "errors carry line numbers" `Quick test_script_errors;
        ] );
      ( "live",
        [
          Alcotest.test_case "session happy path" `Slow test_live_session_happy_path;
          Alcotest.test_case "malformed payload keeps connection" `Slow
            test_live_malformed_payload_keeps_connection;
          Alcotest.test_case "queue full sheds" `Slow test_live_queue_full_sheds;
          Alcotest.test_case "session resumes across reconnect" `Slow
            test_live_session_resumes_across_reconnect;
          Alcotest.test_case "resend of an in-flight waypoint" `Slow
            test_live_resend_in_flight;
          Alcotest.test_case "drain flushes in-flight replies" `Slow
            test_live_drain_flushes_in_flight;
          Alcotest.test_case "replies byte-identical across pools" `Slow
            test_live_replies_byte_identical_across_pools;
          Alcotest.test_case "half-written frame reaped" `Slow
            test_live_half_written_frame_reaped;
          Alcotest.test_case "idle timeout" `Slow test_live_idle_timeout;
          Alcotest.test_case "connection cap busy refusal" `Slow
            test_live_connection_cap_busy;
          Alcotest.test_case "deadline-aware shed" `Slow test_live_deadline_shed;
          Alcotest.test_case "journal restart byte-identical" `Slow
            test_live_journal_restart_byte_identical;
          Alcotest.test_case "restart from a multi-MB journal" `Slow
            test_live_restart_multi_mb_journal;
        ] );
    ]
