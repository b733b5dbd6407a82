(** Crash-safe session journal: the `dadu serve --journal` write-ahead
    log.

    An append-only stream of length-prefixed, FNV-1a-checksummed records
    behind a [DADUJRNL] magic+version header — {!Posture_library}'s
    format discipline, record-oriented so a SIGKILL can only tear the
    tail.  The server appends one record per session lifecycle event
    (open / waypoint commit / close) and flushes {e before} writing the
    reply frame; replaying the journal at startup therefore rebuilds
    the {!Session} registry (ordinal counter, warm-start slot, recent
    reply ring) exactly as an uninterrupted server would hold it, which
    is what makes post-restart replies byte-identical (DESIGN.md §16).

    Replay is one streaming pass: {!open_fold} reads the file through a
    single buffer (1 MiB, or the file's size if smaller; grown only for
    a larger record), checksums the records resident in it four at a
    time ({!Checksum.verify}), and hands each decoded record to a fold
    at once, so neither the file nor a list of its records is ever
    held.  Recovery never trusts the tail: the fold stops at the first
    defect, reported as a typed {!load_error}; the records folded are
    the longest valid prefix.  {!load} and {!open_} are the same pass
    with a list accumulator. *)

type record =
  | Opened of { session : string; robot : string; chain_fp : int; dof : int }
      (** a session was created: the robot spec is stored so replay can
          rebuild the chain, the fingerprint guards against the spec
          resolving differently (e.g. an edited robot file) *)
  | Committed of {
      session : string;
      ordinal : int;  (** the waypoint's stable ordinal *)
      theta : float array option;
          (** the converged joint vector stored in the session slot;
              [None] when the solve did not converge (slot untouched) *)
      reply : string;
          (** the exact reply frame payload, byte-for-byte — replayed
              verbatim when a reconnecting client resends an
              already-committed waypoint *)
    }
  | Closed of { session : string }

type load_error =
  | Io of string
  | Bad_magic
  | Unsupported_version of int
  | Truncated  (** the file ends inside a record (torn tail) *)
  | Checksum_mismatch
  | Malformed of string

val pp_load_error : Format.formatter -> load_error -> unit

val load : string -> (record list * load_error option, load_error) result
(** [load path] decodes the longest valid record prefix.  [Error] only
    for file-level defects (unreadable, bad magic, bad version, file
    shorter than the header); a damaged record stream yields
    [Ok (prefix, Some defect)] with the first defect typed.  An intact
    journal is [Ok (records, None)]. *)

type t
(** An open journal positioned for appending.  Appends are serialized
    internally — safe to call from any thread. *)

val open_fold :
  string ->
  init:'a ->
  f:('a -> record -> 'a) ->
  (t * 'a * load_error option, load_error) result
(** [open_fold path ~init ~f] creates the journal (with header) if
    missing or empty.  Otherwise it folds [f] over the longest valid
    record prefix in file order, each record as soon as it is decoded,
    {b truncates} any damaged tail back to that prefix, and returns the
    handle positioned at the end with the accumulator and the defect.
    [Error] as for {!load}; [f] may already have seen records then. *)

val open_ : string -> (t * record list * load_error option, load_error) result
(** {!open_fold} collecting the recovered records in a list. *)

val append : t -> record -> unit
(** Encode, write, and flush one record (the WAL barrier: callers write
    the reply frame only after [append] returns). *)

val appended : t -> int
(** Records appended through this handle (not counting replayed ones). *)

val close : t -> unit
