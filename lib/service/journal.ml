(* Crash-safe session journal: the write-ahead log behind `dadu serve
   --journal`.

   An append-only stream of length-prefixed records, each carrying its
   own FNV-1a checksum, after a fixed magic+version header — the same
   format discipline as Posture_library, but record-oriented so a
   SIGKILL can only ever tear the *tail*.  The server writes one record
   per session lifecycle event (open / waypoint commit / close).  The
   dispatcher stages the commit records of a whole batch and writes
   them with one flush before any of the batch's reply frames (group
   commit): a record present in the journal is a commitment the reply
   it stores was (or could have been) sent, and a crash between solve
   and write simply re-solves the waypoint from the journalled
   predecessor state — byte-identical either way, which is what makes
   the replay determinism argument of DESIGN.md §16 go through.

   Recovery never trusts the tail: [open_fold] streams records into a
   fold until the first defect and reports it as a typed [load_error];
   the folded records are the longest valid prefix, and the file is
   truncated back to it so subsequent appends extend a well-formed log.
   [load] and [open_] are that fold with a list accumulator.  Online
   compaction (below) copies the live records verbatim into a new file
   and renames it over the journal. *)

type record =
  | Opened of { session : string; robot : string; chain_fp : int; dof : int }
  | Committed of {
      session : string;
      ordinal : int;
      theta : float array option; (* converged joint vector, if any *)
      reply : string; (* exact reply frame payload, for duplicate replay *)
    }
  | Closed of { session : string }

type load_error =
  | Io of string
  | Bad_magic
  | Unsupported_version of int
  | Truncated
  | Checksum_mismatch
  | Malformed of string

let pp_load_error ppf = function
  | Io msg -> Format.fprintf ppf "%s" msg
  | Bad_magic -> Format.fprintf ppf "not a session journal (bad magic)"
  | Unsupported_version v ->
    Format.fprintf ppf "unsupported session journal version %d" v
  | Truncated -> Format.fprintf ppf "truncated session journal"
  | Checksum_mismatch ->
    Format.fprintf ppf "session journal record checksum mismatch (corrupted)"
  | Malformed msg -> Format.fprintf ppf "malformed session journal: %s" msg

let magic = "DADUJRNL"
let version = 1
let header_len = String.length magic + 4
let max_string_len = 1 lsl 16
let max_dof = 1 lsl 16
let max_reply_len = 1 lsl 24
let max_record_bytes = 4 + max_reply_len + (8 * max_dof) + (3 * max_string_len)

(* ---- encoding ---------------------------------------------------------

   Records are encoded straight into a reusable staging buffer: the
   record's exact size is reserved first, the fields are set in place,
   and the checksum is sealed over the payload where it lies.  A staged
   batch is then written with one [output] and one flush. *)

type staging = { mutable buf : bytes; mutable len : int; mutable records : int }

let staging_bytes = 4096

(* a buffer grown past this by one large batch is dropped after it is
   written, so a burst does not pin its peak size *)
let keep_bytes = 1 lsl 20

let staging () = { buf = Bytes.create staging_bytes; len = 0; records = 0 }

let clear st =
  st.len <- 0;
  st.records <- 0;
  if Bytes.length st.buf > keep_bytes then st.buf <- Bytes.create staging_bytes

let payload_bytes = function
  | Opened { session; robot; _ } ->
    1 + 4 + String.length session + 4 + String.length robot + 8 + 4
  | Committed { session; theta; reply; _ } ->
    1 + 4 + String.length session + 4 + 1
    + (match theta with None -> 0 | Some th -> 4 + (8 * Array.length th))
    + 4 + String.length reply
  | Closed { session } -> 1 + 4 + String.length session

let put_u8 st v =
  Bytes.set_uint8 st.buf st.len v;
  st.len <- st.len + 1

let put_u32 st v =
  Bytes.set_int32_le st.buf st.len (Int32.of_int v);
  st.len <- st.len + 4

let put_str st s =
  put_u32 st (String.length s);
  Bytes.blit_string s 0 st.buf st.len (String.length s);
  st.len <- st.len + String.length s

let stage st r =
  let n = payload_bytes r in
  let need = st.len + 4 + n + 8 in
  if need > Bytes.length st.buf then begin
    let b = Bytes.create (max need (2 * Bytes.length st.buf)) in
    Bytes.blit st.buf 0 b 0 st.len;
    st.buf <- b
  end;
  let start = st.len in
  put_u32 st n;
  (match r with
  | Opened { session; robot; chain_fp; dof } ->
    put_u8 st 1;
    put_str st session;
    put_str st robot;
    Bytes.set_int64_le st.buf st.len (Int64.of_int chain_fp);
    st.len <- st.len + 8;
    put_u32 st dof
  | Committed { session; ordinal; theta; reply } ->
    put_u8 st 2;
    put_str st session;
    put_u32 st ordinal;
    (match theta with
    | None -> put_u8 st 0
    | Some th ->
      put_u8 st 1;
      put_u32 st (Array.length th);
      for i = 0 to Array.length th - 1 do
        Bytes.set_int64_le st.buf (st.len + (8 * i))
          (Int64.bits_of_float (Array.unsafe_get th i))
      done;
      st.len <- st.len + (8 * Array.length th));
    put_str st reply
  | Closed { session } ->
    put_u8 st 3;
    put_str st session);
  Checksum.seal st.buf ~off:(start + 4) ~len:n;
  st.len <- start + 4 + n + 8;
  st.records <- st.records + 1

(* ---- decoding --------------------------------------------------------

   One validating pass over a record's payload finds where each field
   lies and copies nothing: the pass fills a [view], one per fold,
   overwritten for each record.  Replay reads a commit's θ and reply
   straight from the read buffer through it ([theta_into], [buffer]);
   [record] copies the fields out when a decoded value is wanted. *)

exception Defect of load_error

type view = {
  mutable b : bytes; (* the read buffer *)
  mutable pos : int; (* the pass's cursor *)
  mutable stop : int; (* end of the payload *)
  mutable offset : int; (* file offset of the record's length header *)
  mutable length : int; (* the record's bytes on file *)
  mutable tag : int;
  mutable name_at : int;
  mutable name_len : int;
  mutable robot_at : int; (* Opened *)
  mutable robot_len : int;
  mutable chain_fp : int;
  mutable dof : int;
  mutable ordinal : int; (* Committed *)
  mutable theta_at : int; (* -1: no θ *)
  mutable theta_len : int;
  mutable reply_at : int;
  mutable reply_len : int;
}

let view () =
  {
    b = Bytes.empty; pos = 0; stop = 0; offset = 0; length = 0; tag = 0;
    name_at = 0; name_len = 0; robot_at = 0; robot_len = 0; chain_fp = 0;
    dof = 0; ordinal = 0; theta_at = -1; theta_len = 0; reply_at = 0;
    reply_len = 0;
  }

let need v n = if v.pos + n > v.stop then raise (Defect (Malformed "short field"))

let get_u8 v =
  need v 1;
  let x = Bytes.get_uint8 v.b v.pos in
  v.pos <- v.pos + 1;
  x

let get_u32 v =
  need v 4;
  let x = Int32.to_int (Bytes.get_int32_le v.b v.pos) in
  v.pos <- v.pos + 4;
  if x < 0 then raise (Defect (Malformed "negative length field"));
  x

let get_int v =
  need v 8;
  let x = Int64.to_int (Bytes.get_int64_le v.b v.pos) in
  v.pos <- v.pos + 8;
  x

(* a string field, left in the buffer: returns where it starts, and the
   cursor ends up just past it *)
let skip_str v ~what ~cap =
  let n = get_u32 v in
  if n > cap then
    raise (Defect (Malformed (Printf.sprintf "%s too long (%d)" what n)));
  need v n;
  let at = v.pos in
  v.pos <- v.pos + n;
  at

let get_dof v =
  let dof = get_u32 v in
  if dof > max_dof then raise (Defect (Malformed "dof out of range"));
  dof

let parse v b off len =
  v.b <- b;
  v.pos <- off;
  v.stop <- off + len;
  v.tag <- get_u8 v;
  (match v.tag with
  | 1 | 2 | 3 ->
    v.name_at <- skip_str v ~what:"session name" ~cap:max_string_len;
    v.name_len <- v.pos - v.name_at
  | tag -> raise (Defect (Malformed (Printf.sprintf "unknown record tag %d" tag))));
  (match v.tag with
  | 1 ->
    v.robot_at <- skip_str v ~what:"robot spec" ~cap:max_string_len;
    v.robot_len <- v.pos - v.robot_at;
    v.chain_fp <- get_int v;
    v.dof <- get_dof v
  | 2 ->
    v.ordinal <- get_u32 v;
    (match get_u8 v with
    | 0 -> v.theta_at <- -1
    | 1 ->
      let dof = get_dof v in
      need v (8 * dof);
      v.theta_at <- v.pos;
      v.theta_len <- dof;
      v.pos <- v.pos + (8 * dof)
    | _ -> raise (Defect (Malformed "bad theta presence flag")));
    v.reply_at <- skip_str v ~what:"reply payload" ~cap:max_reply_len;
    v.reply_len <- v.pos - v.reply_at
  | _ -> ());
  if v.pos <> v.stop then raise (Defect (Malformed "trailing record bytes"))

let offset v = v.offset
let length v = v.length
let is_commit v = v.tag = 2
let session v = Bytes.sub_string v.b v.name_at v.name_len
let ordinal v = v.ordinal
let theta_length v = if v.theta_at < 0 then -1 else v.theta_len

let theta_into v dst =
  if Array.length dst <> v.theta_len || v.theta_at < 0 then
    invalid_arg "Journal.theta_into: not the length of the record's theta";
  for i = 0 to v.theta_len - 1 do
    Array.unsafe_set dst i
      (Int64.float_of_bits (Bytes.get_int64_le v.b (v.theta_at + (8 * i))))
  done

let buffer v = v.b
let reply_at v = v.reply_at
let reply_length v = v.reply_len

let record v =
  match v.tag with
  | 1 ->
    Opened
      {
        session = session v;
        robot = Bytes.sub_string v.b v.robot_at v.robot_len;
        chain_fp = v.chain_fp;
        dof = v.dof;
      }
  | 2 ->
    let theta =
      if v.theta_at < 0 then None
      else begin
        let th = Array.create_float v.theta_len in
        theta_into v th;
        Some th
      end
    in
    Committed
      {
        session = session v;
        ordinal = v.ordinal;
        theta;
        reply = Bytes.sub_string v.b v.reply_at v.reply_len;
      }
  | _ -> Closed { session = session v }

(* ---- streaming reader -------------------------------------------------

   Replay reads the file once, front to back, through one buffer of
   [buffer_bytes] (less for a smaller file), grown only for a record
   larger than itself: neither the file nor a list of its records is
   ever held.  The records wholly inside the buffer are checksummed up
   to [batch] at a time by {!Checksum.verify} (four interleaved hash
   chains), then parsed into the fold's view and handed to the fold in
   file order.  The
   first defect stops the fold exactly where the whole-file decoder
   stopped: records are checked in file order (length header, then
   checksum, then payload), and the file's length — not the buffer's —
   decides [Truncated]. *)

let buffer_bytes = 1 lsl 20
let batch = 64

type reader = {
  ic : In_channel.t;
  total : int; (* file length *)
  mutable buf : bytes;
  mutable base : int; (* file offset of buf.[0] *)
  mutable lo : int; (* buf.[lo, hi) holds the bytes not yet consumed *)
  mutable hi : int;
}

(* Moves the unconsumed bytes to the front of the buffer — a new one of
   [need] bytes if they are part of a record larger than the buffer —
   and reads until it is full or the file ends. *)
let refill r ~need =
  let keep = r.hi - r.lo in
  let b = if need > Bytes.length r.buf then Bytes.create need else r.buf in
  Bytes.blit r.buf r.lo b 0 keep;
  r.buf <- b;
  r.base <- r.base + r.lo;
  r.lo <- 0;
  r.hi <- keep;
  let want = min (Bytes.length b - keep) (r.total - (r.base + keep)) in
  match In_channel.really_input r.ic b keep want with
  | Some () -> r.hi <- keep + want
  | None -> raise (Sys_error "session journal shrank while being read")

type scan_stop =
  | Batch_full
  | Need of int (* the next record needs this many bytes resident *)
  | End_of_file
  | Bad_header of load_error

(* Records in [spans] the payloads of the records wholly in
   buf.[lo, hi), up to [batch] of them, and says why it stopped. *)
let scan r spans =
  let rec go count p =
    let start = r.base + p in
    if count = batch then (count, Batch_full)
    else if start = r.total then (count, End_of_file)
    else if start + 4 > r.total then (count, Bad_header Truncated)
    else if p + 4 > r.hi then (count, Need 4)
    else
      let n = Int32.to_int (Bytes.get_int32_le r.buf p) in
      if n <= 0 || n > max_record_bytes then
        (count, Bad_header (Malformed (Printf.sprintf "record length %d" n)))
      else if start + 4 + n + 8 > r.total then (count, Bad_header Truncated)
      else if p + 4 + n + 8 > r.hi then (count, Need (4 + n + 8))
      else begin
        spans.(2 * count) <- p + 4;
        spans.((2 * count) + 1) <- n;
        go (count + 1) (p + 4 + n + 8)
      end
  in
  go 0 r.lo

(* Folds [f] over the records after the header; returns the accumulator,
   the file offset just past the last record folded, and the first
   defect if the tail is damaged.  A batch's records are checked in
   file order: one before the first bad checksum may still fail to
   decode, and a bad header comes after the whole batch. *)
let fold_records r ~init ~f =
  let spans = Array.make (2 * batch) 0 in
  let v = view () in
  let rec loop acc =
    let count, stop = scan r spans in
    let bad = Checksum.verify r.buf ~spans ~count in
    let rec decode acc i =
      if i = count then Ok acc
      else if i = bad then Error (acc, Checksum_mismatch)
      else
        let off = spans.(2 * i) and n = spans.((2 * i) + 1) in
        match parse v r.buf off n with
        | () ->
          v.offset <- r.base + off - 4;
          v.length <- 4 + n + 8;
          r.lo <- off + n + 8;
          decode (f acc v) (i + 1)
        | exception Defect e -> Error (acc, e)
    in
    match decode acc 0 with
    | Error (acc, e) -> (acc, Some e)
    | Ok acc ->
      (match stop with
      | Batch_full -> loop acc
      | Need need ->
        refill r ~need;
        loop acc
      | End_of_file -> (acc, None)
      | Bad_header e -> (acc, Some e))
  in
  let acc, defect = loop init in
  (acc, r.base + r.lo, defect)

let check_header b total =
  if total < header_len then Error Truncated
  else if Bytes.sub_string b 0 (String.length magic) <> magic then
    Error Bad_magic
  else
    let v = Int32.to_int (Bytes.get_int32_le b (String.length magic)) in
    if v <> version then Error (Unsupported_version v) else Ok ()

(* [Ok None] for an empty file; else the fold over its valid prefix,
   with the valid length and the file length. *)
let read path ~init ~f =
  match
    In_channel.with_open_bin path (fun ic ->
        let total = Int64.to_int (In_channel.length ic) in
        if total = 0 then Ok None
        else
          let size = min buffer_bytes total in
          let r =
            { ic; total; buf = Bytes.create size; base = 0; lo = 0; hi = 0 }
          in
          refill r ~need:0;
          match check_header r.buf total with
          | Error e -> Error e
          | Ok () ->
            r.lo <- header_len;
            let acc, valid_len, defect = fold_records r ~init ~f in
            Ok (Some (acc, valid_len, total, defect)))
  with
  | result -> result
  | exception Sys_error msg -> Error (Io msg)

let load path =
  match read path ~init:[] ~f:(fun records v -> record v :: records) with
  | Error e -> Error e
  | Ok None -> Error Truncated
  | Ok (Some (records, _, _, defect)) -> Ok (List.rev records, defect)

(* ---- append handle ---------------------------------------------------- *)

type spans = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let spans n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * n)

(* A compaction in flight: the helper thread copies the live records of
   the journal as it stood at [at] bytes into [<path>.compact]. *)
type compaction = {
  src : Unix.file_descr; (* the journal, read *)
  dst : Unix.file_descr; (* [<path>.compact], written *)
  at : int; (* the journal's size at the snapshot *)
  at_records : int; (* records appended through the handle by then *)
  spans : spans;
      (* the caller's: the live records' (offset, length) pairs; after
         the copy the first [kept] pairs are (old offset, new offset),
         sorted *)
  count : int;
  mutable kept : int; (* records copied *)
  mutable finger : int; (* the pair [relocate] found last *)
  mutable copied : int; (* the compact file's size after the copy *)
  mutable copy_s : float;
  mutable error : string option;
  finished : bool Atomic.t;
  mutable helper : Thread.t option;
}

type t = {
  path : string;
  mutable oc : out_channel;
  lock : Mutex.t;
  own : staging; (* [append]'s, used under [lock] *)
  mutable appended : int;
  mutable size : int; (* the file's length: header and every record *)
  mutable compaction : compaction option;
  mutable retry_at : int; (* no compaction starts below this size *)
}

let handle path oc ~size =
  {
    path;
    oc;
    lock = Mutex.create ();
    own = staging ();
    appended = 0;
    size;
    compaction = None;
    retry_at = 0;
  }

let compact_path path = path ^ ".compact"

(* A compact file left by a process killed during a compaction holds
   nothing the journal does not: it goes.  Anything but a regular file
   there is left alone. *)
let remove_stale_compact path =
  match Unix.lstat (compact_path path) with
  | { Unix.st_kind = Unix.S_REG; _ } ->
    (try Unix.unlink (compact_path path) with Unix.Unix_error _ -> ())
  | _ | (exception Unix.Unix_error _) -> ()

let open_fold path ~init ~f =
  remove_stale_compact path;
  let fresh () =
    match open_out_bin path with
    | oc ->
      output_string oc magic;
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int version);
      output_bytes oc b;
      flush oc;
      Ok (handle path oc ~size:header_len, init, None)
    | exception Sys_error msg -> Error (Io msg)
  in
  if not (Sys.file_exists path) then fresh ()
  else
    match read path ~init ~f with
    | Error e -> Error e
    | Ok None -> fresh ()
    | Ok (Some (acc, valid_len, total, defect)) ->
      (* a torn or corrupt tail is cut off so every future append
         extends a well-formed log *)
      (match
         let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
         (match
            if valid_len < total then Unix.ftruncate fd valid_len
          with
         | () -> ()
         | exception e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
         ignore (Unix.lseek fd valid_len Unix.SEEK_SET);
         Unix.out_channel_of_descr fd
       with
      | oc -> Ok (handle path oc ~size:valid_len, acc, defect)
      | exception Unix.Unix_error (e, _, _) ->
        Error (Io (Unix.error_message e)))

let open_ path =
  Result.map
    (fun (t, records, defect) -> (t, List.rev records, defect))
    (open_fold path ~init:[] ~f:(fun records v -> record v :: records))

(* called with [lock] held: one output and one flush for everything
   staged *)
let output_staged t (st : staging) =
  output t.oc st.buf 0 st.len;
  flush t.oc;
  t.size <- t.size + st.len;
  t.appended <- t.appended + st.records

(* the staging is emptied whether or not the write succeeds *)
let locked t (st : staging) f =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () ->
      clear st;
      Mutex.unlock t.lock)
    f

let write_staged t (st : staging) =
  if st.records > 0 then locked t st (fun () -> output_staged t st)

let append t r =
  locked t t.own (fun () ->
      stage t.own r;
      output_staged t t.own)

let appended t = t.appended

let size t = t.size

let staged_bytes (st : staging) = st.len

(* ---- compaction --------------------------------------------------------

   A journal's live records are those replay needs to rebuild the
   registry it rebuilds from the whole file ({!Session} knows which they
   are); the rest are dead.  Once the dead bytes reach
   max(live, [buffer_bytes]), [compact_start] snapshots the live
   records' spans and the file's size X, and a helper thread copies
   those records verbatim, in file order, into [<path>.compact] and
   fsyncs it, outside the runtime lock ([copy]).  [compact_finish]
   appends the bytes written since X, renames the compact file over
   the journal and swaps the append channel.  Replaying the result
   folds the same registry: what was dropped changed nothing replay
   keeps, and the records written since X follow in order.  A kill at
   any step leaves either the journal as it was (plus a stale compact
   file, removed at the next start-up) or the renamed file, which holds
   every record written (DESIGN.md §16). *)

external copy : Unix.file_descr -> Unix.file_descr -> spans -> int -> bool -> int
  = "dadu_journal_copy"

let should_compact t ~live =
  Option.is_none t.compaction && t.size >= t.retry_at
  && t.size - header_len - live >= max live buffer_bytes

(* a failed compaction is not tried again before the journal has grown
   by as much again *)
let back_off t ~live = t.retry_at <- t.size + max live buffer_bytes

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let run_copy c =
  let t0 = Unix.gettimeofday () in
  (match copy c.src c.dst c.spans c.count true with
  | kept ->
    (* the pairs become (old offset, new offset) *)
    let next = ref header_len in
    for k = 0 to kept - 1 do
      let len = c.spans.{(2 * k) + 1} in
      c.spans.{(2 * k) + 1} <- !next;
      next := !next + len
    done;
    c.kept <- kept;
    c.copied <- !next
  | exception Sys_error msg -> c.error <- Some msg);
  c.copy_s <- Unix.gettimeofday () -. t0;
  Atomic.set c.finished true

let compact_start t ~(spans : spans) ~count =
  if count < 0 || 2 * count > Bigarray.Array1.dim spans then
    invalid_arg "Journal.compact_start: count out of range";
  let live = ref 0 in
  for k = 0 to count - 1 do
    let off = spans.{2 * k} and len = spans.{(2 * k) + 1} in
    if off < header_len || len <= 0 || off > t.size - len then
      invalid_arg "Journal.compact_start: span outside the journal";
    live := !live + len
  done;
  let failed msg =
    back_off t ~live:!live;
    Error msg
  in
  match
    Unix.openfile (compact_path t.path)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o666
  with
  | exception Unix.Unix_error (e, _, _) ->
    failed (Printf.sprintf "%s: %s" (compact_path t.path) (Unix.error_message e))
  | dst ->
    (match
       let h = Bytes.create header_len in
       Bytes.blit_string magic 0 h 0 (String.length magic);
       Bytes.set_int32_le h (String.length magic) (Int32.of_int version);
       if Unix.write dst h 0 header_len <> header_len then
         raise (Unix.Unix_error (Unix.EIO, "write", ""));
       Unix.openfile t.path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
     with
    | exception Unix.Unix_error (e, _, _) ->
      close_quietly dst;
      (try Unix.unlink (compact_path t.path) with Unix.Unix_error _ -> ());
      failed (Printf.sprintf "%s: %s" (compact_path t.path) (Unix.error_message e))
    | src ->
      let c =
        {
          src;
          dst;
          at = t.size;
          at_records = t.appended;
          spans;
          count;
          kept = 0;
          finger = 0;
          copied = 0;
          copy_s = 0.;
          error = None;
          finished = Atomic.make false;
          helper = None;
        }
      in
      c.helper <- Some (Thread.create run_copy c);
      t.compaction <- Some c;
      Ok ())

let compacting t = Option.is_some t.compaction

let compact_ready t =
  match t.compaction with Some c -> Atomic.get c.finished | None -> false

type compacted = {
  before : int;
  after : int;
  records : int;
  copy_s : float;
  relocate : int -> int;
}

(* Where the copied record at [off] went, from the sorted (old, new)
   pairs: a galloping search from the pair found last.  A session's
   records are relocated in file order, a few pairs apart, so the search
   stays within a few cache lines of its finger. *)
let missing () = invalid_arg "Journal: relocating a record the compaction did not copy"

(* the index of [off] in [lo, hi) *)
let rec bsearch (spans : spans) off lo hi =
  if lo >= hi then missing ()
  else
    let mid = (lo + hi) / 2 in
    let o = spans.{2 * mid} in
    if o = off then mid
    else if o < off then bsearch spans off (mid + 1) hi
    else bsearch spans off lo mid

(* the pair at [lo] is below [off] *)
let rec gallop_up (spans : spans) off ~kept lo step =
  let hi = lo + step in
  if hi >= kept then bsearch spans off (lo + 1) kept
  else if spans.{2 * hi} >= off then bsearch spans off (lo + 1) (hi + 1)
  else gallop_up spans off ~kept hi (2 * step)

(* the pair at [hi] is above [off] *)
let rec gallop_down (spans : spans) off hi step =
  let lo = hi - step in
  if lo < 0 then bsearch spans off 0 hi
  else if spans.{2 * lo} <= off then bsearch spans off lo hi
  else gallop_down spans off lo (2 * step)

let find_copied c off =
  if c.kept = 0 then missing ();
  let f = c.finger in
  let o = c.spans.{2 * f} in
  let i =
    if o = off then f
    else if o < off then gallop_up c.spans off ~kept:c.kept f 1
    else gallop_down c.spans off f 1
  in
  c.finger <- i;
  c.spans.{(2 * i) + 1}

(* where a record at [off] of the old file lies in the compacted one:
   past the snapshot it moved with the tail, before it it is one of the
   copied records *)
let relocate c ~tail_at off = if off >= c.at then off - c.at + tail_at else find_copied c off

(* the compact file and its descriptors go; the journal stays as it is *)
let abandon t c =
  t.compaction <- None;
  close_quietly c.src;
  close_quietly c.dst;
  try Unix.unlink (compact_path t.path) with Unix.Unix_error _ -> ()

let join c = Option.iter Thread.join c.helper

let compact_finish t =
  match t.compaction with
  | None -> invalid_arg "Journal.compact_finish: no compaction in flight"
  | Some c ->
    join c;
    let live = c.copied - header_len in
    (match c.error with
    | Some msg ->
      abandon t c;
      back_off t ~live;
      Error msg
    | None ->
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () ->
          let before = t.size in
          let tail = before - c.at in
          let gone msg =
            abandon t c;
            back_off t ~live;
            Error msg
          in
          match
            if tail > 0 then begin
              let s = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout [| c.at; tail |] in
              ignore (copy c.src c.dst s 1 false)
            end;
            Unix.rename (compact_path t.path) t.path
          with
          | exception Sys_error msg -> gone msg
          | exception Unix.Unix_error (e, _, _) -> gone (Unix.error_message e)
          | () ->
            t.compaction <- None;
            (* the old file's last descriptor is closed on a thread of
               its own: that close frees the file's blocks, which can
               take milliseconds *)
            close_out_noerr t.oc;
            ignore (Thread.create close_quietly c.src);
            t.oc <- Unix.out_channel_of_descr c.dst;
            t.size <- c.copied + tail;
            Ok
              {
                before;
                after = t.size;
                records = c.kept + (t.appended - c.at_records);
                copy_s = c.copy_s;
                relocate = relocate c ~tail_at:c.copied;
              }))

let close t =
  Option.iter
    (fun c ->
      join c;
      abandon t c)
    t.compaction;
  Mutex.lock t.lock;
  close_out_noerr t.oc;
  Mutex.unlock t.lock
