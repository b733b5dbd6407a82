(** Resilient script-driven client for the `dadu serve` protocol: the
    engine behind `dadu client`.

    Ops are written pipelined in script order (one frame each, ids are
    script indices), at most 64 unanswered at a time, and replies
    collected until every op has exactly one answer.  The window keeps
    the client reading while the server writes: 64 requests fit in any
    socket buffer, so a long script never leaves the client blocked in a
    write while the server is blocked writing the replies it owes.
    Solve-type replies (solved / rejected / faulted / overloaded) are
    keyed by id for the byte-comparable dump; everything else is
    surfaced through [on_event] in arrival order — request order,
    because the server answers control ops from the connection's own
    reader thread.

    {2 Reconnect and resume}

    When the connection dies mid-stream (EOF, reset, desync, read
    timeout, injected [net-*] fault) and [retries] remain, the client
    backs off (exponential in the consecutive-failure count, jittered
    from [seed], capped at 10 s), reconnects, replays a {e prelude} —
    the last acknowledged [hello] plus a re-[open] for every session
    with unanswered ops — and resends every unanswered op.  Resent
    waypoints carry a per-session ["seq"] index (offset by the
    [waypoints] count of that session epoch's first [opened] reply,
    reset at each scripted [close], and attached only once that reply
    has been seen — first-pass waypoints take the server's legacy
    counter path), so a journal-backed server answers a resent,
    already-committed waypoint with the original reply bytes instead of
    solving twice: the dump is byte-identical to an uninterrupted run
    even across a server [kill -9] and restart (DESIGN.md §16).

    A server [busy] refusal counts as a connection failure and consumes
    a retry.  [read_timeout_s] bounds both the idle wait for the next
    reply and the completion of a started reply frame — without it, a
    dead-but-open connection (e.g. an injected [net-cut] that dropped a
    request) would block forever. *)

type error =
  | Connect of string
      (** the initial connection could not be established at all *)
  | Unrecovered of string
      (** the stream failed and the retry budget is exhausted *)

type outcome = {
  solves : (int * string) list;  (** solve-type replies, sorted by id *)
  overloaded : int;  (** how many of those are [overloaded] sheds *)
  reconnects : int;  (** connection attempts beyond the first *)
}

val payload_of_op : ?seq:int -> int -> Problem_file.op -> string
(** The wire payload for a script op with client id (script index)
    [id]; [seq] is attached to waypoint ops only. *)

val reply_is_solve_type : string -> int option
(** [Some id] when the payload is a solve-type reply carrying an id. *)

val run :
  ?retries:int ->
  ?backoff_ms:int ->
  ?seed:int ->
  ?read_timeout_s:float ->
  ?fault:Dadu_util.Fault.t ->
  ?on_event:(string -> unit) ->
  ?on_reconnect:(int -> unit) ->
  connect:(unit -> (Unix.file_descr, string) result) ->
  Problem_file.op array ->
  (outcome, error) result
(** [retries] (default 0) is the reconnection budget; [backoff_ms]
    (default 100) the base back-off; [fault] a client-side wire-fault
    registry for the [net-*] sites, forked per connection attempt
    (reader fork [2k], writer fork [2k+1]); [on_reconnect] is called
    with the attempt count before each back-off.  [connect] is invoked
    once per attempt and may itself retry (e.g. while a killed server
    restarts). *)
