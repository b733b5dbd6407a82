(* The client side of the `dadu serve` wire: framed writes, a buffered
   reader that yields every complete frame already received (so one
   thread can multiplex reads with a send schedule through
   [Unix.select]), and the reply checks. *)

open Dadu_linalg
open Dadu_kinematics
module Json = Dadu_util.Json

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable eof : bool;
}

let frame payload = Printf.sprintf "%d\n%s\n" (String.length payload) payload

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* one write for a whole burst of payloads *)
let send conn payloads =
  if payloads <> [] then write_all conn.fd (String.concat "" (List.map frame payloads))

let connect ~sock ~alive ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { fd; buf = Bytes.create 65536; lo = 0; hi = 0; eof = false }
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT | EAGAIN), _, _) ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline || not (alive ()) then
        failwith (Printf.sprintf "server on %s never accepted a connection" sock);
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* the next complete frame in the buffer, if any *)
let take_frame conn =
  match Bytes.index_from_opt conn.buf conn.lo '\n' with
  | Some nl when nl < conn.hi ->
    let n = int_of_string (Bytes.sub_string conn.buf conn.lo (nl - conn.lo)) in
    if nl + 1 + n + 1 <= conn.hi then begin
      let payload = Bytes.sub_string conn.buf (nl + 1) n in
      conn.lo <- nl + 1 + n + 1;
      Some payload
    end
    else None
  | Some _ | None -> None

(* Wait up to [timeout_s] (negative: forever) for data, read what has
   arrived, and hand every complete frame to [f].  Returns the number of
   frames handled; sets [eof] when the server closed the stream. *)
let poll conn ~timeout_s f =
  let ready =
    match Unix.select [ conn.fd ] [] [] timeout_s with
    | r, _, _ -> r <> []
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  if not ready then 0
  else begin
    if conn.lo > 0 then begin
      Bytes.blit conn.buf conn.lo conn.buf 0 (conn.hi - conn.lo);
      conn.hi <- conn.hi - conn.lo;
      conn.lo <- 0
    end;
    if conn.hi = Bytes.length conn.buf then begin
      let b = Bytes.create (2 * Bytes.length conn.buf) in
      Bytes.blit conn.buf 0 b 0 conn.hi;
      conn.buf <- b
    end;
    let got =
      try Unix.read conn.fd conn.buf conn.hi (Bytes.length conn.buf - conn.hi)
      with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
    in
    if got = 0 then conn.eof <- true;
    conn.hi <- conn.hi + got;
    let n = ref 0 in
    let rec drain () =
      match take_frame conn with
      | Some payload ->
        incr n;
        f payload;
        drain ()
      | None -> ()
    in
    drain ();
    !n
  end

(* ---- reply checks ------------------------------------------------------ *)

let accuracy = 1e-2

let int_member key json =
  Option.map int_of_float (Option.bind (Json.member key json) Json.to_float)

let str_member key json = Option.bind (Json.member key json) Json.to_str

let bool_member key json =
  match Json.member key json with Some (Json.Bool b) -> Some b | _ -> None

(* A reply passes when it is [solved] and [converged], and the client's
   own forward kinematics puts its θ within the service accuracy of the
   target it asked for. *)
let check_solved ~chain ~target payload =
  match Json.of_string payload with
  | Error e -> Error ("unparsable reply: " ^ e)
  | Ok json ->
    (match (str_member "reply" json, str_member "status" json, int_member "id" json) with
    | Some "solved", Some "converged", Some id ->
      (match Option.bind (Json.member "theta" json) Json.to_list with
      | Some xs when List.length xs = Chain.dof chain ->
        let theta = Array.of_list (List.filter_map Json.to_float xs) in
        let miss = Vec3.dist (Fk.position chain theta) target in
        if Array.length theta = Chain.dof chain && miss <= accuracy then Ok ()
        else Error (Printf.sprintf "reply %d: FK re-check misses the target by %.3g m" id miss)
      | Some _ | None -> Error "reply without a full theta")
    | Some kind, status, _ ->
      Error
        (Printf.sprintf "reply %s%s: %s" kind
           (match status with Some s -> " " ^ s | None -> "")
           (if String.length payload > 160 then String.sub payload 0 160 else payload))
    | None, _, _ -> Error "reply without a kind")

let reply_id payload =
  match Json.of_string payload with Ok json -> int_member "id" json | Error _ -> None
