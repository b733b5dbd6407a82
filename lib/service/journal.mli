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
    time ({!Checksum.verify}), and hands each record to a fold at once
    as a {!view} of the bytes where they lie, so neither the file nor a
    list of its records is ever held, and a commit's θ and reply are
    read straight from the buffer.  Recovery never trusts the tail: the
    fold stops at the first defect, reported as a typed {!load_error};
    the records folded are the longest valid prefix.  {!load} and
    {!open_} are the same pass with a list accumulator.

    The journal is compacted online ({!compact_start}): once its dead
    records outweigh max(live, {!buffer_bytes}), the live ones are
    copied verbatim into [<path>.compact] by a helper thread and the
    copy is renamed over the journal (DESIGN.md §16). *)

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

type view
(** A record where it lies in the read buffer, as {!open_fold} hands it
    to its fold: valid only during that call, then overwritten by the
    next record.  Its fields were checked when it was read; reading them
    copies only what the reader asks for. *)

val offset : view -> int
(** The file offset of the record's length header. *)

val length : view -> int
(** The record's bytes on file: length header, payload and checksum. *)

val record : view -> record
(** The record decoded, its strings and θ copied out. *)

val is_commit : view -> bool

val session : view -> string
(** The record's session name, copied. *)

val ordinal : view -> int
(** A [Committed] record's ordinal. *)

val theta_length : view -> int
(** The number of θ entries a [Committed] record carries; [-1] when it
    carries none. *)

val theta_into : view -> float array -> unit
(** Read a [Committed] record's θ into an array of {!theta_length}
    entries.  Raises [Invalid_argument] on another length. *)

val buffer : view -> bytes
(** The read buffer the record lies in: read it, never write it. *)

val reply_at : view -> int
(** Where a [Committed] record's reply starts in {!buffer}. *)

val reply_length : view -> int

val open_fold :
  string ->
  init:'a ->
  f:('a -> view -> 'a) ->
  (t * 'a * load_error option, load_error) result
(** [open_fold path ~init ~f] first removes a regular file left at
    [<path>.compact] by a compaction that never finished.  It creates
    the journal (with header) if missing or empty.  Otherwise it folds
    [f] over the longest valid record prefix in file order, each record
    as soon as it is read, {b truncates} any damaged tail back to that
    prefix, and returns the handle positioned at the end with the
    accumulator and the defect.  [Error] as for {!load}; [f] may
    already have seen records then. *)

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

val size : t -> int
(** The journal's length in bytes: the offset the next record written
    through the handle starts at. *)

val staged_bytes : staging -> int
(** Bytes staged and not yet written: a record staged next starts at
    this offset from the start of the staging's write. *)

val buffer_bytes : int
(** The replay's read buffer (1 MiB), and the least dead weight that
    starts a compaction. *)

(** {2 Compaction}

    One compaction at a time, driven by one caller that also serializes
    every append ({!Server}'s session lock). *)

val should_compact : t -> live:int -> bool
(** No compaction is in flight, and the dead bytes (all but the header
    and the [live] bytes) reach max([live], {!buffer_bytes}).  After a
    failed compaction, not before the journal has grown by that much
    again. *)

type spans = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** (offset, length) pairs, off the OCaml heap: the helper sorts them
    in place outside the runtime lock. *)

val spans : int -> spans
(** Room for this many pairs. *)

val compact_start : t -> spans:spans -> count:int -> (unit, string) result
(** Start copying the live records, the first [count] (offset, length)
    pairs of [spans] (any order; duplicates allowed), into
    [<path>.compact] on a helper thread, which fsyncs the copy.  Appends
    go on meanwhile.  The helper sorts the pairs in [spans]: the caller
    leaves the array alone until {!compact_finish} has returned.
    [Error] when the compact file cannot be created or the journal
    reopened; the journal is untouched.  Raises [Invalid_argument] for
    a span outside the journal. *)

val compacting : t -> bool

val compact_ready : t -> bool
(** The helper has finished: {!compact_finish} will not wait. *)

type compacted = {
  before : int;  (** the journal's bytes before the swap *)
  after : int;  (** and after *)
  records : int;  (** records in the compacted journal *)
  copy_s : float;  (** the helper's copy and fsync *)
  relocate : int -> int;
      (** the new offset of a record at this offset of the old file:
          one of the copied records, or one written since the copy
          began.  Raises [Invalid_argument] for any other. *)
}

val compact_finish : t -> (compacted, string) result
(** Wait for the helper, append what was written since {!compact_start},
    rename the compact file over the journal and append to it from then
    on.  [Error] if the copy failed: the compact file is removed and the
    journal is as it was.  Raises [Invalid_argument] when no compaction
    is in flight. *)

val close : t -> unit
(** Close the journal; a compaction in flight is abandoned. *)
