(** Crash-safe session journal: the `dadu serve --journal` write-ahead
    log.

    An append-only stream of length-prefixed, FNV-1a-checksummed records
    behind a [DADUJRNL] magic+version header — {!Posture_library}'s
    format discipline, record-oriented so a SIGKILL can only tear the
    tail.  The server writes one record per session lifecycle event
    (open / waypoint commit / close), and a batch's commit records with
    one flush ({!write_staged}), {e before} writing any of the batch's
    reply frames; replaying the journal at startup therefore rebuilds
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

val max_dof : int
(** The most joints a record holds (65,536): the decoder rejects a
    larger [dof] as [Malformed], so {!Problem_file.robot_of_spec}
    refuses a larger robot before a session can journal it. *)

val max_string_len : int
(** The longest session name or robot spec a record holds (65,536
    bytes): the decoder rejects a longer one as [Malformed], so the
    server refuses it at [open] before a session can journal it. *)

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

type staging
(** Records encoded and sealed, waiting to be written together: one
    batch's group commit.  A reusable buffer with one writer: not
    thread-safe. *)

val staging : unit -> staging

val stage : staging -> record -> unit
(** Encode a record at the end of the staging buffer, in place, and seal
    its checksum there.  The record is read at once: nothing of it (θ
    included) is kept. *)

val write_staged : t -> staging -> unit
(** Write every staged record with one output and one flush, then empty
    the staging, also when the write raises; nothing happens when
    nothing is staged.  The bytes are those {!append} writes for the
    same records one by one.  The WAL barrier for a batch: callers
    write the batch's reply frames only after it returns. *)

val appended : t -> int
(** Records appended through this handle (not counting replayed ones). *)

val close : t -> unit
