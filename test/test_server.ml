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

(* An address that cannot be bound is an [Error] with the reason, never an
   exception, and a file that is not a socket is never removed to make
   room.  Unix paths only: they need no resolver. *)
let test_bind_unusable () =
  let refused path expect =
    match Server.bind (Server.Unix_sock path) with
    | Ok _ -> Alcotest.failf "bound %s" path
    | Error reason -> Alcotest.(check string) path expect reason
  in
  refused "/nonexistent-dir/x.sock" (Unix.error_message Unix.ENOENT);
  let file = Filename.temp_file "dadu_srv" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  refused file (Unix.error_message Unix.EADDRINUSE);
  Alcotest.(check bool) "the file is kept" true (Sys.file_exists file)

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

(* ---- reply float formatting ---- *)

(* A reply's θ must read exactly as Printf's "%.17g" joined by commas
   wrote it: random arrays, with the values where a formatter is likeliest
   to differ forced in (signed zeros, subnormals, the extremes,
   infinities, both signs of nan). *)
let test_json_floats_property =
  let special =
    [ 0.; -0.; 4.9406564584124654e-324; -4.9406564584124654e-324;
      2.2250738585072009e-308; Float.min_float; max_float; -.max_float;
      infinity; neg_infinity; nan; Float.neg nan; 1e21; 0.1 ]
  in
  let gen =
    let open QCheck.Gen in
    let entry =
      frequency
        [ (4, float); (2, float_range (-4.) 4.); (2, oneofl special) ]
    in
    let* xs = array_size (int_range 0 40) entry in
    (* every special value once, at a random place *)
    let* at = int_range 0 (Array.length xs) in
    return
      (Array.concat
         [ Array.sub xs 0 at; Array.of_list special;
           Array.sub xs at (Array.length xs - at) ])
  in
  QCheck.Test.make ~name:"json_floats = Printf %.17g, comma-joined" ~count:2_000
    (QCheck.make ~print:QCheck.Print.(array float) gen)
    (fun xs ->
      Server.json_floats xs
      = String.concat "," (List.map (Printf.sprintf "%.17g") (Array.to_list xs)))

let test_json_floats_empty () =
  Alcotest.(check string) "no entries" "" (Server.json_floats [||])

(* The float writer against Printf's "%.17g", deterministically, where an
   integer conversion is likeliest to slip: exact ties (n / 2^j with odd
   n and 18 significant digits, the last a 5, so the 17th is rounded
   half to even; every j from 15 to 20, 100,000 of them at j = 17), the
   neighbours of every power of ten from 1e-30 to 1e30, random bit
   patterns, values in a reply's range and across magnitudes. *)
let test_reply_text_sweep () =
  let scratch = Bytes.create Reply_text.scratch_bytes in
  let checked = ref 0 and mismatches = ref [] in
  let check x =
    incr checked;
    let got = Bytes.sub_string scratch 0 (Reply_text.write_float scratch 0 x) in
    let want = Printf.sprintf "%.17g" x in
    if got <> want && List.length !mismatches < 5 then
      mismatches := Printf.sprintf "%h: %s, not %s" x got want :: !mismatches
  in
  let both x =
    check x;
    check (-.x)
  in
  (* n / 2^j has j fraction digits, so it has 18 significant digits in
     [10^(16-j), 10^(17-j)) *)
  for j = 15 to 20 do
    let lo = Float.ldexp (10. ** float_of_int (16 - j)) j in
    let first = int_of_float (Float.ceil lo) lor 1 in
    let count = if j = 17 then 100_000 else 20_000 in
    for i = 0 to count - 1 do
      both (Float.ldexp (float_of_int (first + (2 * i))) (-j))
    done
  done;
  for k = -30 to 30 do
    let p = float_of_string (Printf.sprintf "1e%d" k) in
    let up = ref p and down = ref p in
    for _ = 0 to 20 do
      both !up;
      both !down;
      up := Float.succ !up;
      down := Float.pred !down
    done
  done;
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 200_000 do
    check (Int64.float_of_bits (Random.State.bits64 rng))
  done;
  for _ = 1 to 100_000 do
    check (Random.State.float rng 8. -. 4.);
    both (10. ** (Random.State.float rng 44. -. 26.))
  done;
  for i = 0 to 10_000 do
    both (float_of_int i)
  done;
  List.iter both
    [ 0.; 4.9406564584124654e-324; 2.2250738585072009e-308; Float.min_float;
      max_float; infinity; nan; 1e21; 1e22; 1e23; 0.1; 9007199254740991.;
      9007199254740992.; 1e-22; 9.9999999999999995e-5; 0.00010000000000000001 ];
  Alcotest.(check (list string))
    (Printf.sprintf "every one of %d values matches" !checked)
    [] (List.rev !mismatches)

(* A reply's θ is converted without allocating: only the values left
   to the runtime's conversion would allocate. *)
let test_reply_text_no_alloc () =
  let scratch = Bytes.create Reply_text.scratch_bytes in
  let xs = Array.init 1_000 (fun i -> (float_of_int i /. 125.) -. 4.) in
  let b = Buffer.create (25 * 1_000) in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    Buffer.clear b;
    Reply_text.add_floats b scratch xs
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for 10,000 doubles" (w1 -. w0))
    true
    (w1 -. w0 < 100.);
  Alcotest.check_raises "the scratch must have room"
    (Invalid_argument "Reply_text.write_float: fewer than 32 bytes from the offset")
    (fun () -> ignore (Reply_text.write_float scratch 1 1.5))

(* ---- whole replies ---- *)

(* The reply template as the server wrote it with Printf before replies
   were built by Buffer adds: the encoder must write these bytes. *)
let printf_reply ~id ~session ~ordinal (reply : Service.reply) =
  let open Dadu_core in
  match reply with
  | Service.Rejected invalid ->
    Printf.sprintf "{\"reply\":\"rejected\",\"id\":%d,\"reason\":%S}" id
      (Format.asprintf "%a" Ik.pp_invalid invalid)
  | Service.Faulted msg ->
    Printf.sprintf "{\"reply\":\"faulted\",\"id\":%d,\"reason\":%S}" id msg
  | Service.Solved
      { result; solver; fallbacks; cache_hit; session_hit; deadline_exceeded; retries; _ } ->
    let spart =
      match session with
      | None -> ""
      | Some s -> Printf.sprintf "\"session\":%S,\"ordinal\":%d," s ordinal
    in
    Printf.sprintf
      "{\"reply\":\"solved\",\"id\":%d,%s\"status\":%S,\"solver\":%S,\"iterations\":%d,\"error\":%.17g,\"fallbacks\":%d,\"retries\":%d,\"cache_hit\":%b,\"session_hit\":%b,\"deadline_exceeded\":%b,\"theta\":[%s]}"
      id spart
      (Format.asprintf "%a" Ik.pp_status result.Ik.status)
      (Fallback.name solver) result.Ik.iterations result.Ik.error fallbacks
      retries cache_hit session_hit deadline_exceeded
      (String.concat "," (List.map (Printf.sprintf "%.17g") (Array.to_list result.Ik.theta)))

let reply_gen =
  let open QCheck.Gen in
  let open Dadu_core in
  let any_int = oneof [ int; oneofl [ 0; -1; 1; max_int; min_int ]; small_signed_int ] in
  let float =
    frequency
      [ (3, float); (3, float_range (-4.) 4.);
        (1, oneofl [ 0.; -0.; nan; infinity; neg_infinity; 5e-324; 1e-5 ]) ]
  in
  (* quotes, backslashes, control bytes, DEL, UTF-8 and raw high bytes *)
  let text =
    string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\t'; '\000'; '\127' ] ])
      (int_range 0 24)
    >|= fun s -> s ^ "\xc3\xa9\xe2\x82\xac"
  in
  let solved =
    let* theta = array_size (int_range 0 40) float
    and* error = float
    and* iterations = any_int
    and* status = oneofl [ Ik.Converged; Ik.Max_iterations; Ik.Stalled; Ik.Diverged ]
    and* solver = oneofl (List.map snd Fallback.all)
    and* fallbacks = any_int
    and* retries = any_int
    and* cache_hit = bool
    and* session_hit = bool
    and* deadline_exceeded = bool in
    return
      (Service.Solved
         {
           result = { Ik.theta; error; iterations; speculations = 64; status; svd_sweeps = 0 };
           solver; fallbacks; cache_hit; session_hit; deadline_exceeded;
           breaker_skips = 0; retries; retry_converged = false; trail = [];
           latency_s = 0.;
         })
  in
  let reply =
    frequency
      [
        (6, solved);
        (1, map (fun msg -> Service.Faulted msg) text);
        ( 1,
          oneof
            [
              map2 (fun expected got -> Service.Rejected (Ik.Dof_mismatch { expected; got })) any_int any_int;
              oneofl [ Service.Rejected Ik.Nonfinite_target; Service.Rejected Ik.Nonfinite_theta0 ];
            ] );
      ]
  in
  quad any_int (opt text) any_int reply

let test_encode_reply_property =
  let enc = Server.encoder () in
  QCheck.Test.make ~name:"encode_reply = the Printf reply template" ~count:2_000
    (QCheck.make
       ~print:(fun (id, session, ordinal, reply) ->
         printf_reply ~id ~session ~ordinal reply)
       reply_gen)
    (fun (id, session, ordinal, reply) ->
      Server.encode_reply enc ~id ~session ~ordinal reply
      = printf_reply ~id ~session ~ordinal reply)

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

(* bound on the caller, so a client may connect as soon as this returns *)
let serve server path =
  match Server.bind (Server.Unix_sock path) with
  | Error reason -> Alcotest.failf "bind %s: %s" path reason
  | Ok listener -> Thread.create (fun () -> Server.run server listener) ()

let with_server ?(config = Server.default_config) f =
  let path = Filename.temp_file "dadu_srv" ".sock" in
  Sys.remove path;
  let server = Server.create ~config () in
  let runner = serve server path in
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
  let runner = serve server path in
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
    let runner = serve server path in
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

(* [open] and a [seq]-numbered waypoint on a line, each answered before
   the next op is sent *)
let open_ rd oc ~id session robot =
  send oc
    (Printf.sprintf "{\"op\":\"open\",\"id\":%d,\"session\":%S,\"robot\":%S}"
       id session robot);
  recv rd

let wp rd oc ~id session seq =
  send oc
    (Printf.sprintf
       "{\"op\":\"waypoint\",\"id\":%d,\"session\":%S,\"seq\":%d,\"target\":[4.0,%.17g,2.0]}"
       id session seq
       (1.0 +. (0.02 *. float_of_int seq)));
  fst (recv rd)

(* A robot too large for a journal record is refused at [open]: the
   journal never receives a record its decoder rejects, so a restart
   still replays every later record of every other session. *)
let test_live_over_dof_open_keeps_journal () =
  let journal = Filename.temp_file "dadu_jrnl" ".wal" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  let config = { Server.default_config with Server.journal = Some journal } in
  let first =
    with_server ~config @@ fun _server path ->
    let fd, rd, oc = connect path in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    ignore (expect_kind "open a" "opened" (open_ rd oc ~id:1 "a" "eval:12"));
    let a0 = wp rd oc ~id:2 "a" 0 in
    let refused = expect_kind "open big" "error" (open_ rd oc ~id:3 "big" "snake:65537") in
    Alcotest.(check bool) "the error names the limit" true
      (match str_member "message" refused with
      | Some m -> Astring.String.is_infix ~affix:(string_of_int Journal.max_dof) m
      | None -> false);
    ignore (expect_kind "open b" "opened" (open_ rd oc ~id:4 "b" "eval:12"));
    let b0 = wp rd oc ~id:5 "b" 0 in
    let a1 = wp rd oc ~id:6 "a" 1 in
    [ a0; b0; a1 ]
  in
  with_server ~config @@ fun server path ->
  Alcotest.(check bool) "journal replayed clean" true
    (Server.journal_recovery server = None);
  let fd, rd, oc = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let resumed session count =
    let opened = expect_kind ("reopen " ^ session) "opened" (open_ rd oc ~id:7 session "eval:12") in
    Alcotest.(check (option bool)) (session ^ " resumed") (Some true)
      (bool_member "resumed" opened);
    Alcotest.(check (option int)) (session ^ " commits kept") (Some count)
      (int_member "waypoints" opened)
  in
  resumed "a" 2;
  resumed "b" 1;
  Alcotest.(check (list string)) "resends answer the journaled replies" first
    [ wp rd oc ~id:2 "a" 0; wp rd oc ~id:5 "b" 0; wp rd oc ~id:6 "a" 1 ]

(* A session name or robot spec longer than a journal record holds is
   refused at [open], with or without a journal: a journaled server
   never writes a record the restart's decoder would reject and cut the
   journal at, with every later record of every session. *)
let test_live_long_name_open_keeps_journal () =
  let journal = Filename.temp_file "dadu_jrnl" ".wal" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  let long = String.make 70_000 'x' in
  let refused name (_, json) =
    Alcotest.(check string) name "error" (reply_kind json);
    Alcotest.(check bool) (name ^ ": the error names the limit") true
      (match str_member "message" json with
      | Some m -> Astring.String.is_infix ~affix:(string_of_int Journal.max_string_len) m
      | None -> false)
  in
  (* without a journal the refusal is the same *)
  (with_server @@ fun _server path ->
   let fd, rd, oc = connect path in
   Fun.protect
     ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
   @@ fun () ->
   refused "long name, no journal" (open_ rd oc ~id:1 long "eval:12");
   refused "long robot spec, no journal" (open_ rd oc ~id:2 "c" ("eval:12" ^ long)));
  let config = { Server.default_config with Server.journal = Some journal } in
  let first =
    with_server ~config @@ fun _server path ->
    let fd, rd, oc = connect path in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    ignore (expect_kind "open a" "opened" (open_ rd oc ~id:1 "a" "eval:12"));
    let a0 = wp rd oc ~id:2 "a" 0 in
    refused "long name" (open_ rd oc ~id:3 long "eval:12");
    refused "long robot spec" (open_ rd oc ~id:4 "c" ("eval:12" ^ long));
    ignore (expect_kind "open b" "opened" (open_ rd oc ~id:5 "b" "eval:12"));
    let b0 = wp rd oc ~id:6 "b" 0 in
    [ a0; b0 ]
  in
  with_server ~config @@ fun server path ->
  Alcotest.(check bool) "journal replayed clean" true
    (Server.journal_recovery server = None);
  let fd, rd, oc = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  List.iter
    (fun session ->
      let opened = expect_kind ("reopen " ^ session) "opened" (open_ rd oc ~id:7 session "eval:12") in
      Alcotest.(check (option bool)) (session ^ " resumed") (Some true)
        (bool_member "resumed" opened);
      Alcotest.(check (option int)) (session ^ " commits kept") (Some 1)
        (int_member "waypoints" opened))
    [ "a"; "b" ];
  Alcotest.(check (list string)) "resends answer the journaled replies" first
    [ wp rd oc ~id:2 "a" 0; wp rd oc ~id:6 "b" 0 ]

let committed_of = function
  | Journal.Committed { session; ordinal; reply; _ } -> Some (session, ordinal, reply)
  | Journal.Opened _ | Journal.Closed _ -> None

let load_journal path =
  match Journal.load path with
  | Ok (records, _) -> records
  | Error e -> Alcotest.fail (Format.asprintf "%a" Journal.pp_load_error e)

(* A close and a re-open of one session, pipelined behind its in-flight
   waypoints: the old session's late replies still reach the client, but
   none of them is journaled after the new session's [Opened] record,
   so a restart resumes the new session at the count the live server
   held, not at the old session's late commits.  The close frees the old
   session's reply window, so the late commits land on a released
   window; the re-opened name has a window of its own, which answers a
   resend of its first waypoint with that waypoint's bytes, before and
   after the restart. *)
let test_live_pipelined_close_reopen () =
  let journal = Filename.temp_file "dadu_jrnl" ".wal" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  let config = { Server.default_config with Server.journal = Some journal } in
  let n = 60 in
  let open_op id = Printf.sprintf "{\"op\":\"open\",\"id\":%d,\"session\":\"s0\",\"robot\":\"eval:30\"}" id in
  let reopened ~live ~count rd oc =
    send oc (open_op 999);
    let opened = expect_kind "open s0 again" "opened" (recv rd) in
    Alcotest.(check (option bool)) (live ^ ": resumed") (Some true)
      (bool_member "resumed" opened);
    Alcotest.(check (option int)) (live ^ ": the new session's count")
      (Some count) (int_member "waypoints" opened)
  in
  let waypoint =
    "{\"op\":\"waypoint\",\"id\":7,\"session\":\"s0\",\"seq\":0,\"target\":[4.0,1.5,2.0]}"
  in
  let resend ~live rd oc fresh =
    send oc waypoint;
    Alcotest.(check string) (live ^ ": a resend gets the new window's bytes")
      fresh (fst (recv rd))
  in
  let fresh =
    with_server ~config @@ fun _server path ->
    let fd, rd, oc = connect path in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let frame = Problem_file.write_frame oc in
    frame (open_op 0);
    for i = 1 to n do
      frame
        (Printf.sprintf
           "{\"op\":\"waypoint\",\"id\":%d,\"session\":\"s0\",\"target\":[4.0,%.17g,2.0]}"
           i (1.0 +. (0.015 *. float_of_int i)))
    done;
    frame "{\"op\":\"close\",\"id\":100,\"session\":\"s0\"}";
    frame (open_op 101);
    (* one write (the frames fit the channel's buffer): the reader takes
       the close and the re-open while the dispatcher still works through
       the waypoints *)
    flush oc;
    let replies = List.init (n + 3) (fun _ -> recv rd) in
    let kinds = List.map (fun (_, json) -> reply_kind json) replies in
    Alcotest.(check int) "every waypoint answered" n
      (List.length (List.filter (( = ) "solved") kinds));
    Alcotest.(check int) "opened twice" 2
      (List.length (List.filter (( = ) "opened") kinds));
    let rec after_close = function
      | [] -> []
      | "closed" :: rest -> rest
      | _ :: rest -> after_close rest
    in
    Alcotest.(check bool) "some waypoint answered after the close" true
      (List.mem "solved" (after_close kinds));
    reopened ~live:"live" ~count:0 rd oc;
    let old_first =
      List.find_map
        (fun (payload, json) ->
          if reply_kind json = "solved" && int_member "ordinal" json = Some 0
          then Some payload
          else None)
        replies
    in
    send oc waypoint;
    let fresh = fst (recv rd) in
    Alcotest.(check bool) "the new session's ordinal 0 is its own" true
      (old_first <> None && old_first <> Some fresh);
    resend ~live:"live" rd oc fresh;
    fresh
  in
  let records = load_journal journal in
  let rec after_second_open opens = function
    | [] -> []
    | Journal.Opened { session = "s0"; _ } :: rest ->
      if opens = 1 then rest else after_second_open (opens + 1) rest
    | _ :: rest -> after_second_open opens rest
  in
  Alcotest.(check (list (triple string int string)))
    "after s0's second open, only the new session's commit" [ ("s0", 0, fresh) ]
    (List.filter_map committed_of (after_second_open 0 records));
  with_server ~config @@ fun server path ->
  Alcotest.(check bool) "journal replayed clean" true
    (Server.journal_recovery server = None);
  let fd, rd, oc = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  reopened ~live:"restarted" ~count:1 rd oc;
  resend ~live:"restarted" rd oc fresh

(* Write-ahead per batch, seen from the client: 4 sessions x 100
   waypoints pipelined, and each time a solved reply is read, the
   journal already holds that waypoint's commit record with exactly the
   reply's bytes. *)
let test_live_write_ahead_per_batch () =
  let journal = Filename.temp_file "dadu_jrnl" ".wal" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  let config = { Server.default_config with Server.journal = Some journal } in
  with_server ~config @@ fun _server path ->
  let fd, rd, oc = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let sessions = 4 and waypoints = 100 in
  for s = 0 to sessions - 1 do
    send oc
      (Printf.sprintf "{\"op\":\"open\",\"id\":%d,\"session\":\"w%d\",\"robot\":\"eval:12\"}" s s);
    ignore (expect_kind "opened" "opened" (recv rd))
  done;
  for k = 0 to waypoints - 1 do
    for s = 0 to sessions - 1 do
      Problem_file.write_frame oc
        (Printf.sprintf
           "{\"op\":\"waypoint\",\"id\":%d,\"session\":\"w%d\",\"target\":[3.0,%.17g,%.17g]}"
           ((k * sessions) + s) s
           (1.0 +. (0.01 *. float_of_int k))
           (1.0 +. (0.1 *. float_of_int s)))
    done
  done;
  flush oc;
  for _ = 1 to sessions * waypoints do
    let payload, json = recv rd in
    Alcotest.(check string) "solved" "solved" (reply_kind json);
    let key =
      match (str_member "session" json, int_member "ordinal" json) with
      | Some s, Some o -> (s, o)
      | _ -> Alcotest.fail ("no session or ordinal in " ^ payload)
    in
    let journaled =
      List.find_map
        (fun r ->
          match committed_of r with
          | Some (s, o, reply) when (s, o) = key -> Some reply
          | _ -> None)
        (load_journal journal)
    in
    Alcotest.(check (option string))
      (Printf.sprintf "%s #%d journaled before its reply" (fst key) (snd key))
      (Some payload) journaled
  done

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

(* [Client.run] against a one-thread server that reads a frame, writes
   a ~16 KB reply, and only then reads the next frame.  A client that
   writes every request before it reads a reply fills the server's
   socket buffer with replies while the server stops reading; once its
   own ~400 KB of requests overflow the other buffer, both sides block
   in a write.  Keeping at most 64 ops unanswered, the client reads
   while the server writes.  A watchdog cuts the connection after 10 s,
   so a stalled client fails the case instead of hanging it. *)
let test_client_window () =
  let path = Filename.temp_file "dadu_fake" ".sock" in
  Sys.remove path;
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  let reply =
    Printf.sprintf "{\"reply\":\"pong\",\"pad\":%S}" (String.make 16_000 'r')
  in
  let conn = ref None and finished = Atomic.make false in
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept ~cloexec:true listener in
        conn := Some fd;
        let rd = Problem_file.frame_reader fd in
        let oc = Unix.out_channel_of_descr fd in
        let rec serve () =
          match Problem_file.read_frame_fd rd with
          | Problem_file.Frame _ ->
            Problem_file.write_frame oc reply;
            flush oc;
            serve ()
          | Problem_file.Eof | Problem_file.Timed_out _
          | Problem_file.Frame_error _ ->
            ()
        in
        (try serve () with Sys_error _ | Unix.Unix_error _ -> ());
        Unix.close fd)
      ()
  in
  let watchdog =
    Thread.create
      (fun () ->
        let deadline = Unix.gettimeofday () +. 10. in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.05
        done;
        if not (Atomic.get finished) then
          Option.iter
            (fun fd ->
              try Unix.shutdown fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ())
            !conn)
      ()
  in
  let ops =
    Array.make 400
      (Problem_file.Raw
         (Printf.sprintf "{\"op\":\"ping\",\"pad\":%S}" (String.make 1_000 'q')))
  in
  let pongs = ref 0 in
  let outcome =
    Client.run
      ~on_event:(fun _ -> incr pongs)
      ~connect:(fun () ->
        let fd, _, _ = connect path in
        Ok fd)
      ops
  in
  Atomic.set finished true;
  Thread.join watchdog;
  Thread.join server;
  Unix.close listener;
  (try Sys.remove path with Sys_error _ -> ());
  (match outcome with
  | Ok _ -> ()
  | Error (Client.Connect msg | Client.Unrecovered msg) ->
    Alcotest.failf "client stalled and was cut: %s" msg);
  Alcotest.(check int) "every op answered" 400 !pongs

(* Alcotest shortens a long test name by the length of the longest suite
   name, so a suite name longer than "reply floats" would change how the
   existing tests' names print. *)
let () =
  Alcotest.run "dadu_server"
    [
      ( "listen",
        [
          Alcotest.test_case "listen_of_string" `Quick test_listen_of_string;
          Alcotest.test_case "bind reports an unusable address" `Quick
            test_bind_unusable;
        ] );
      ( "framing",
        [
          Alcotest.test_case "round-trip" `Quick test_framing_roundtrip;
          Alcotest.test_case "errors" `Quick test_framing_errors;
          qcheck test_framing_property;
        ] );
      ( "reply floats",
        [
          qcheck test_json_floats_property;
          Alcotest.test_case "empty" `Quick test_json_floats_empty;
          Alcotest.test_case "sweep against Printf" `Quick test_reply_text_sweep;
          Alcotest.test_case "no allocation" `Quick test_reply_text_no_alloc;
        ] );
      ("encode reply", [ qcheck test_encode_reply_property ]);
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
          Alcotest.test_case "over-DOF open keeps the journal" `Slow
            test_live_over_dof_open_keeps_journal;
          Alcotest.test_case "over-long session name keeps the journal" `Slow
            test_live_long_name_open_keeps_journal;
          Alcotest.test_case "pipelined close and re-open" `Slow
            test_live_pipelined_close_reopen;
          Alcotest.test_case "write-ahead per batch" `Slow
            test_live_write_ahead_per_batch;
          Alcotest.test_case "restart from a multi-MB journal" `Slow
            test_live_restart_multi_mb_journal;
          Alcotest.test_case "client window against a one-thread server" `Slow
            test_client_window;
        ] );
    ]
