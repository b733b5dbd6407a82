(** Persistent concurrent IK server: the `dadu serve --listen` engine.

    Thread-per-connection readers parse length-prefixed JSON frames
    ({!Problem_file.read_frame_fd}) and answer control ops (hello / ping /
    open / close / stats) synchronously; solve and waypoint ops are
    enqueued into a bounded FIFO that a single dispatcher thread drains
    in batches through {!Service.solve_requests}.  A full queue sheds
    the request with a typed [overloaded] reply — backpressure, not
    unbounded queueing.

    {2 Determinism}

    Solve-type reply payloads are built from reply values only (no
    clocks, no addresses), with ["%.17g"] doubles — the bytes a client
    dumps are compared with [cmp] across pool sizes in CI.  Session
    waypoints carry stable ordinals from the session's own enqueue
    counter and warm-start from the session slot, bypassing the shared
    seed cache, so their replies are a pure function of the session's
    waypoint sequence — independent of how other connections interleave
    (DESIGN.md §15).  One-shot solves use the client-assigned [id] as
    their stable ordinal; with warm-starting enabled their cache
    visibility can still depend on dispatcher batch boundaries, so
    full-stream byte determinism additionally needs the shared cache
    off.  Shedding consumes nothing for one-shot solves but a shed
    waypoint still consumed its ordinal — determinism is forfeited for
    a session that sheds.

    {2 Crash safety}

    With [config.journal] set, every session [open], committed waypoint
    (ordinal, θ, and the exact reply bytes) and [close] is appended to a
    checksummed {!Journal} {e before} the reply frame is written — the
    write-ahead barrier.  The dispatcher keeps it per batch: it writes
    the commit records of a whole batch with one flush, and only then
    remembers the replies for resends and writes their frames, flushing
    each connection once.  A reply whose session was closed (or closed
    and re-opened) meanwhile is still sent, but gets no record.  An
    [open] whose session name or robot spec is longer than
    {!Journal.max_string_len} bytes is refused with an [error] reply,
    with or without a journal.  On startup the journal's valid prefix is
    replayed into the session registry in one streaming fold
    ({!replay_journal}), so a client that re-[open]s after a [kill -9]
    resumes with the same warm-start slot and ordinal counter and its
    remaining waypoints solve byte-identically to an uninterrupted run;
    the restart holds one read buffer and the live sessions, never the
    whole history.  Waypoint ops may carry a client-side ["seq"]
    index: a resent waypoint whose [seq] already committed is answered
    with the original reply bytes from a per-session window of the last
    128 ordinals (at most one solve and exactly one well-formed reply
    per waypoint, whatever the wire did in between — DESIGN.md §16).

    {2 Connection hygiene}

    Readers enforce an optional idle timeout (slow-loris defense) and a
    frame-completion timeout via {!Problem_file.read_frame_fd}; both
    drop the connection after a final typed error reply.  Connections
    beyond [max_connections] get one [busy] frame with a
    [retry_after_ms] hint and are closed.  When [est_job_ms] is
    positive, a queued job whose estimated wait exceeds its request
    deadline is shed up-front with [retry_after_ms] attached to the
    [overloaded] reply.

    {2 Shutdown}

    {!stop} is async-signal-safe (an atomic flag plus a self-pipe
    write): install it as the SIGTERM/SIGINT handler.  {!run} then
    stops accepting, pushes EOF at every connection, lets the
    dispatcher finish everything already admitted, flushes the replies,
    and returns — the graceful-drain contract the CI serve-live job
    asserts by [kill -TERM] and checking exit 0 with all in-flight
    replies present. *)

type listen = Unix_sock of string | Tcp of string * int

val listen_of_string : string -> (listen, string) result
(** ["unix:<path>"], ["tcp:<host>:<port>"] (empty host means
    127.0.0.1), or a bare path (treated as a Unix socket). *)

type config = {
  service : Service.config;
  queue_capacity : int;
      (** admission bound: solve/waypoint ops beyond this many queued
          jobs are shed with an [overloaded] reply.  [0] sheds
          everything — the load-shedding test hook. *)
  max_batch : int;  (** most jobs handed to one {!Service} batch *)
  max_connections : int;
      (** live-connection cap; excess connections are refused with one
          [busy] frame carrying [retry_after_ms] *)
  idle_timeout_s : float option;
      (** drop a connection idle (no frame started) this long;
          [None] waits forever *)
  frame_timeout_s : float option;
      (** drop a connection whose started frame is incomplete after
          this long; [None] restores the legacy block-forever read *)
  retry_after_ms : int;
      (** back-off hint attached to [busy] refusals and shed replies *)
  est_job_ms : float;
      (** estimated per-job service time used for deadline-aware
          shedding; [0.] disables the estimate (queue-full is then the
          only shed trigger) *)
  net_fault : Dadu_util.Fault.t;
      (** wire-fault registry for the [net-*] sites; each accepted
          connection gets deterministic forks (reader [2i], writer
          [2i+1]).  {!Dadu_util.Fault.disabled} for production. *)
  journal : string option;  (** session journal path; [None] disables *)
}

val default_config : config

type t

val create : ?pool:Dadu_util.Domain_pool.t -> ?config:config -> unit -> t
(** Raises [Invalid_argument] on a negative queue capacity, a
    non-positive batch size or connection cap, a negative
    [retry_after_ms], or an unopenable/corrupt journal file. *)

type replayed = {
  journal : Journal.t;  (** positioned for appending *)
  sessions : (string, Session.t) Hashtbl.t;  (** the live sessions, by name *)
  records : int;  (** valid records read *)
  applied : int;
      (** records that changed the registry: the [journal_replays] stat *)
  defect : Journal.load_error option;  (** the damaged tail cut off, if any *)
}

val replay_journal : string -> (replayed, Journal.load_error) result
(** The restart step of {!create}: open the journal at the path with
    {!Journal.open_fold} and fold every valid record straight into a
    fresh session registry, so each session holds its ordinal counter,
    warm-start slot and last-128 reply window and nothing else of the
    history is kept.  [Error] when the journal cannot be opened. *)

val journal_recovery : t -> Journal.load_error option
(** The defect (if any) found at the journal's tail when {!create}
    opened it; the valid prefix was replayed and the tail truncated. *)

val stop : t -> unit
(** Begin a graceful drain.  Async-signal-safe and idempotent. *)

val run : t -> listen:listen -> unit
(** Bind, accept, and serve until {!stop}; returns after the drain
    completes.  Ignores SIGPIPE.  An existing Unix socket file at the
    path is replaced, and removed again on shutdown. *)

val json_floats : float array -> string
(** A reply's [theta] entries: each printed as Printf's ["%.17g"] does
    ({!Reply_text}), comma-separated. *)

type encoder
(** A reusable reply buffer and float scratch.  One per thread. *)

val encoder : unit -> encoder

val encode_reply :
  encoder ->
  id:int ->
  session:string option ->
  ordinal:int ->
  Service.reply ->
  string
(** The payload of a [solve] ([session = None]) or [waypoint] reply, as
    the dispatcher writes it: [solved], [rejected] or [faulted], written
    with {!Reply_text} (no Printf on the [solved] path).  [ordinal] is
    printed only with a session. *)

val render_tenants : t -> string
(** Per-tenant metrics tables (sorted by tenant name) with shed
    counts — the summary the CLI prints after {!run} returns. *)

