open Dadu_core
open Dadu_kinematics
module Vec = Dadu_linalg.Vec
module Vec3 = Dadu_linalg.Vec3
module Rng = Dadu_util.Rng

let robot_of_spec spec =
  let spec = String.trim spec in
  match String.index_opt spec ':' with
  | Some i when String.lowercase_ascii (String.sub spec 0 i) = "file" ->
    let path = String.sub spec (i + 1) (String.length spec - i - 1) in
    (match Chain_format.parse_file path with
    | Ok chain -> Ok chain
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  | _ ->
    let fail () =
      Error
        (Printf.sprintf
           "unknown robot %S (expected arm6 | arm7 | scara | snake:<dof> | \
            eval:<dof> | planar:<dof> | file:<path>)"
           spec)
    in
    (match String.split_on_char ':' (String.lowercase_ascii spec) with
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
    | _ -> fail ())

let floats_of_csv s =
  let parts = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | p :: rest ->
      (match float_of_string_opt (String.trim p) with
      | Some f -> go (f :: acc) rest
      | None -> None)
  in
  go [] parts

let vec3_of_string s =
  match floats_of_csv s with
  | Some [ x; y; z ] -> Some (Vec3.make x y z)
  | Some _ | None -> None

(* "key=value" → value, when the token carries that key *)
let keyed key token =
  match String.index_opt token '=' with
  | Some i when String.sub token 0 i = key ->
    Some (String.sub token (i + 1) (String.length token - i - 1))
  | Some _ | None -> None

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

type entry = { problem : Ik.problem; deadline_s : float option }

(* "deadline=<s>" on a target/random line -> per-request deadline.  [Ok
   None] when the token list has no deadline; [Error] mentions the bad
   value. *)
let deadline_of_tokens tokens =
  let rec go = function
    | [] -> Ok None
    | token :: rest ->
      (match keyed "deadline" token with
      | None -> go rest
      | Some v ->
        (match float_of_string_opt v with
        | Some d when d >= 0. && Float.is_finite d -> Ok (Some d)
        | Some _ | None ->
          Error (Printf.sprintf "deadline must be a non-negative number (got %S)" v)))
  in
  go tokens

let without_deadline tokens =
  List.filter (fun t -> keyed "deadline" t = None) tokens

let parse_requests text =
  let lines = String.split_on_char '\n' text in
  let problems = ref [] in
  let robot = ref None in
  let error = ref None in
  let fail lineno fmt =
    Printf.ksprintf
      (fun msg -> if !error = None then error := Some (Printf.sprintf "line %d: %s" lineno msg))
      fmt
  in
  let require_robot lineno =
    match !robot with
    | Some chain -> Some chain
    | None ->
      fail lineno "target before any robot declaration";
      None
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if !error = None then
        let line_tokens = tokens (strip_comment line) in
        let deadline_s =
          match deadline_of_tokens line_tokens with
          | Ok d -> d
          | Error msg ->
            fail lineno "%s" msg;
            None
        in
        let add problem = problems := { problem; deadline_s } :: !problems in
        match without_deadline line_tokens with
        | [] -> ()
        | "robot" :: rest ->
          (match robot_of_spec (String.concat " " rest) with
          | Ok chain -> robot := Some chain
          | Error msg -> fail lineno "%s" msg)
        | [ "target"; coords ] ->
          (match require_robot lineno with
          | None -> ()
          | Some chain ->
            (match vec3_of_string coords with
            | None -> fail lineno "expected target x,y,z (got %S)" coords
            | Some target ->
              let theta0 = Chain.clamp_config chain (Vec.create (Chain.dof chain)) in
              add (Ik.problem ~chain ~target ~theta0)))
        | [ "target"; coords; extra ] ->
          (match require_robot lineno with
          | None -> ()
          | Some chain ->
            (match (vec3_of_string coords, keyed "theta0" extra) with
            | None, _ -> fail lineno "expected target x,y,z (got %S)" coords
            | _, None -> fail lineno "expected theta0=a,b,... (got %S)" extra
            | Some target, Some thetas ->
              (match floats_of_csv thetas with
              | None -> fail lineno "expected theta0=a,b,... (got %S)" extra
              | Some vals when List.length vals <> Chain.dof chain ->
                fail lineno "theta0 has %d entries but %s has %d DOF"
                  (List.length vals) (Chain.name chain) (Chain.dof chain)
              | Some vals ->
                add (Ik.problem ~chain ~target ~theta0:(Vec.of_list vals)))))
        | "random" :: count :: rest ->
          (match require_robot lineno with
          | None -> ()
          | Some chain ->
            let seed =
              match rest with
              | [] -> Some 42
              | [ token ] -> Option.bind (keyed "seed" token) int_of_string_opt
              | _ -> None
            in
            (match (int_of_string_opt count, seed) with
            | Some n, Some seed when n > 0 ->
              let rng = Rng.create seed in
              for _ = 1 to n do
                add (Ik.random_problem rng chain)
              done
            | Some n, Some _ -> fail lineno "random count must be positive (got %d)" n
            | None, _ -> fail lineno "expected random <count> [seed=<n>] (got %S)" count
            | _, None -> fail lineno "expected random <count> [seed=<n>]"))
        | keyword :: _ ->
          fail lineno "unknown declaration %S (robot | target | random)" keyword)
    lines;
  match !error with
  | Some msg -> Error msg
  | None -> Ok (Array.of_list (List.rev !problems))

(* ---- wire framing -----------------------------------------------------

   One frame of the `dadu serve` protocol: the payload byte length in
   ASCII decimal, a newline, the payload bytes, a newline.  Both sides of
   the socket speak only frames; payloads are JSON documents but the
   framing layer never looks inside them, so a malformed JSON payload
   costs a typed error reply while the stream stays synchronized.  A
   malformed length line is different: the reader no longer knows where
   the next frame starts, so the connection must be dropped (the server
   sends a final error reply first). *)

(* a garbage length line must not convince us to allocate gigabytes *)
let max_frame_bytes = 1 lsl 24

let write_frame oc payload =
  Out_channel.output_string oc (string_of_int (String.length payload));
  Out_channel.output_char oc '\n';
  Out_channel.output_string oc payload;
  Out_channel.output_char oc '\n'

(* ---- deadline-aware framing over a raw descriptor ----------------------

   A reader blocked on a stdlib channel would let a peer that stops
   mid-frame pin the reading thread forever — the slow-loris hole the
   server's connection hygiene closes.  This reader works on the raw
   descriptor with [Unix.select], enforcing two distinct deadlines: an
   *idle* timeout while waiting for the first byte of the next frame,
   and a *frame* timeout for completing a frame once its first byte has
   arrived.  Either [None] means wait forever. *)

type frame_reader = {
  rfd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlo : int; (* first unconsumed byte *)
  mutable rhi : int; (* first unfilled byte *)
}

let frame_reader fd = { rfd = fd; rbuf = Bytes.create 8192; rlo = 0; rhi = 0 }

type framed =
  | Frame of string
  | Eof  (** clean EOF before a length line *)
  | Timed_out of [ `Idle | `Frame ]
  | Frame_error of string  (** stream desynchronized: drop the connection *)

(* make room to read at least [need] more bytes past rhi *)
let reserve r need =
  let cap = Bytes.length r.rbuf in
  if cap - r.rhi < need then begin
    let live = r.rhi - r.rlo in
    if cap - live >= need && r.rlo > 0 then begin
      Bytes.blit r.rbuf r.rlo r.rbuf 0 live;
      r.rlo <- 0;
      r.rhi <- live
    end
    else begin
      let cap' = max (live + need) (2 * cap) in
      let b = Bytes.create cap' in
      Bytes.blit r.rbuf r.rlo b 0 live;
      r.rbuf <- b;
      r.rlo <- 0;
      r.rhi <- live
    end
  end

(* one refill bounded by [deadline] (absolute seconds, None = forever) *)
let refill r ~deadline =
  reserve r 1;
  let rec wait () =
    let timeout =
      match deadline with
      | None -> -1.
      | Some d -> d -. Unix.gettimeofday ()
    in
    if timeout <= 0. && deadline <> None then `Timeout
    else
      match Unix.select [ r.rfd ] [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | [], _, _ -> if deadline = None then wait () else `Timeout
      | _ -> (
        match Unix.read r.rfd r.rbuf r.rhi (Bytes.length r.rbuf - r.rhi) with
        | 0 -> `Eof
        | n ->
          r.rhi <- r.rhi + n;
          `Ok
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        | exception
            Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
          ->
          `Eof
        | exception Unix.Unix_error (e, _, _) ->
          `Error (Unix.error_message e))
  in
  wait ()

let max_length_line = 32

let read_frame_fd ?idle_timeout_s ?frame_timeout_s r =
  let deadline_of now = function
    | None -> None
    | Some t -> Some (now +. t)
  in
  (* phase 1: wait (idle-bounded) for the first byte of the frame *)
  let rec first_byte () =
    if r.rhi > r.rlo then Ok ()
    else
      match
        refill r ~deadline:(deadline_of (Unix.gettimeofday ()) idle_timeout_s)
      with
      | `Ok -> first_byte ()
      | `Eof -> Error Eof
      | `Timeout -> Error (Timed_out `Idle)
      | `Error msg -> Error (Frame_error msg)
  in
  match first_byte () with
  | Error e -> e
  | Ok () ->
    (* phase 2: a frame has started; it must complete within the frame
       deadline *)
    let deadline = deadline_of (Unix.gettimeofday ()) frame_timeout_s in
    let rec fill_until have =
      if r.rhi - r.rlo >= have then Ok ()
      else
        match refill r ~deadline with
        | `Ok -> fill_until have
        | `Eof -> Error (Frame_error "truncated frame (eof)")
        | `Timeout -> Error (Timed_out `Frame)
        | `Error msg -> Error (Frame_error msg)
    in
    (* scan offsets are relative to rlo: refills may compact the buffer
       and move the live region *)
    let rec find_nl off =
      if r.rlo + off < r.rhi then
        if Bytes.get r.rbuf (r.rlo + off) = '\n' then Ok off
        else if off >= max_length_line then
          Error (Frame_error "malformed frame length line (too long)")
        else find_nl (off + 1)
      else
        match refill r ~deadline with
        | `Ok -> find_nl off
        | `Eof -> Error (Frame_error "truncated frame (eof in length line)")
        | `Timeout -> Error (Timed_out `Frame)
        | `Error msg -> Error (Frame_error msg)
    in
    (match find_nl 0 with
    | Error e -> e
    | Ok nl ->
      let line = Bytes.sub_string r.rbuf r.rlo nl in
      (match int_of_string_opt (String.trim line) with
      | Some n when n >= 0 && n <= max_frame_bytes ->
        let line_len = nl + 1 in
        (match fill_until (line_len + n + 1) with
        | Error e -> e
        | Ok () ->
          let payload = Bytes.sub_string r.rbuf (r.rlo + line_len) n in
          let term = Bytes.get r.rbuf (r.rlo + line_len + n) in
          r.rlo <- r.rlo + line_len + n + 1;
          if r.rlo = r.rhi then begin
            r.rlo <- 0;
            r.rhi <- 0
          end;
          if term = '\n' then Frame payload
          else Frame_error "missing frame terminator")
      | Some n -> Frame_error (Printf.sprintf "frame length out of range (%d)" n)
      | None ->
        Frame_error (Printf.sprintf "malformed frame length line (got %S)" line)))

(* ---- wire-level fault injection ----------------------------------------

   The four network sites of Dadu_util.Fault, consulted on the sender
   side of every frame.  Faults act on the *framing layer*: cut and
   short-frame abandon the stream (the caller marks the connection dead
   and shuts it down), garble corrupts the length line (payloads carry
   no checksum, so only header corruption is reliably detectable by the
   peer), stall pauses mid-frame — long enough stalls trip the peer's
   frame deadline.  Consultation order is fixed (cut, short, garble,
   stall) so a registry's firing sequence depends only on its seed and
   the frame sequence written through it. *)

let write_frame_injected ~fault oc payload =
  if not (Dadu_util.Fault.enabled fault) then begin
    write_frame oc payload;
    flush oc;
    true
  end
  else begin
    let fires site = Dadu_util.Fault.fires fault ~site () in
    match fires Dadu_util.Fault.net_cut with
    | Some _ -> false
    | None ->
      let frame =
        Printf.sprintf "%d\n%s\n" (String.length payload) payload
      in
      (match fires Dadu_util.Fault.net_short_frame with
      | Some _ ->
        let keep = max 1 (String.length frame / 2) in
        (try
           output_string oc (String.sub frame 0 keep);
           flush oc
         with Sys_error _ -> ());
        false
      | None ->
        let frame =
          match fires Dadu_util.Fault.net_garble with
          | None -> frame
          | Some _ ->
            let b = Bytes.of_string frame in
            Bytes.set b 0 '#';
            Bytes.unsafe_to_string b
        in
        let stall = fires Dadu_util.Fault.net_stall in
        (try
           (match stall with
           | Some arg when arg > 0. ->
             let cut = String.index frame '\n' + 1 in
             output_string oc (String.sub frame 0 cut);
             flush oc;
             Thread.delay arg;
             output_string oc
               (String.sub frame cut (String.length frame - cut))
           | _ -> output_string oc frame);
           flush oc;
           true
         with Sys_error _ -> false))
  end

(* ---- client scripts ---------------------------------------------------

   The `dadu client` op stream: one op per line, same comment/token
   rules as problem files.  Robot specs stay strings — the server
   resolves them, so a bad spec is an exercised error path rather than a
   client-side crash. *)

type op =
  | Hello of { tenant : string }
  | Open of { session : string; robot : string }
  | Waypoint of { session : string; x : float; y : float; z : float }
  | Solve of {
      robot : string;
      x : float;
      y : float;
      z : float;
      theta0 : float list option;
      deadline_s : float option;
    }
  | Ping
  | Close of { session : string }
  | Stats
  | Raw of string

let parse_script text =
  let lines = String.split_on_char '\n' text in
  let ops = ref [] in
  let robot = ref None in
  let error = ref None in
  let fail lineno fmt =
    Printf.ksprintf
      (fun msg ->
        if !error = None then
          error := Some (Printf.sprintf "line %d: %s" lineno msg))
      fmt
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if !error = None then begin
        let stripped = strip_comment line in
        let line_tokens = tokens stripped in
        let add op = ops := op :: !ops in
        match line_tokens with
        | [] -> ()
        | "raw" :: _ ->
          (* verbatim payload after "raw ": the malformed-frame test
             hook, so no token/comment processing beyond the keyword *)
          let body =
            let s = String.trim stripped in
            String.trim (String.sub s 3 (String.length s - 3))
          in
          add (Raw body)
        | [ "hello"; tenant ] -> add (Hello { tenant })
        | "robot" :: rest when rest <> [] ->
          robot := Some (String.concat " " rest)
        | [ "open"; session; robot ] -> add (Open { session; robot })
        | [ "waypoint"; session; coords ] ->
          (match vec3_of_string coords with
          | None -> fail lineno "expected waypoint <session> x,y,z (got %S)" coords
          | Some t -> add (Waypoint { session; x = t.Vec3.x; y = t.Vec3.y; z = t.Vec3.z }))
        | "solve" :: coords :: rest ->
          (match !robot with
          | None -> fail lineno "solve before any robot declaration"
          | Some robot ->
            (match (vec3_of_string coords, deadline_of_tokens rest) with
            | None, _ -> fail lineno "expected solve x,y,z (got %S)" coords
            | _, Error msg -> fail lineno "%s" msg
            | Some t, Ok deadline_s ->
              let theta0 =
                List.find_map (fun tok -> keyed "theta0" tok) rest
              in
              (match (theta0, Option.map floats_of_csv theta0) with
              | Some raw, Some None ->
                fail lineno "expected theta0=a,b,... (got %S)" raw
              | _, theta0 ->
                add
                  (Solve
                     {
                       robot;
                       x = t.Vec3.x;
                       y = t.Vec3.y;
                       z = t.Vec3.z;
                       theta0 = Option.join theta0;
                       deadline_s;
                     }))))
        | [ "ping" ] -> add Ping
        | [ "close"; session ] -> add (Close { session })
        | [ "stats" ] -> add Stats
        | keyword :: _ ->
          fail lineno
            "unknown op %S (hello | robot | open | waypoint | solve | ping | \
             close | stats | raw)"
            keyword
      end)
    lines;
  match !error with
  | Some msg -> Error msg
  | None -> Ok (Array.of_list (List.rev !ops))

let parse_script_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_script text
  | exception Sys_error msg -> Error msg

let parse text =
  Result.map
    (Array.map (fun e -> e.problem))
    (parse_requests text)

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let parse_requests_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_requests text
  | exception Sys_error msg -> Error msg
