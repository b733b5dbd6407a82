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
   [load] and [open_] are that fold with a list accumulator. *)

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

(* ---- decoding -------------------------------------------------------- *)

exception Defect of load_error

(* A decode cursor over [b.[pos, stop)]: top-level readers rather than
   closures, and theta read straight into a float array, so decoding a
   record allocates only the record's own values. *)
type cursor = { b : bytes; mutable pos : int; stop : int }

let need c n = if c.pos + n > c.stop then raise (Defect (Malformed "short field"))

let get_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.b c.pos in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.b c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then raise (Defect (Malformed "negative length field"));
  v

let get_int c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_le c.b c.pos) in
  c.pos <- c.pos + 8;
  v

let get_floats c n =
  need c (8 * n);
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set a i
      (Int64.float_of_bits (Bytes.get_int64_le c.b (c.pos + (8 * i))))
  done;
  c.pos <- c.pos + (8 * n);
  a

let get_str c ~what ~cap =
  let n = get_u32 c in
  if n > cap then
    raise (Defect (Malformed (Printf.sprintf "%s too long (%d)" what n)));
  need c n;
  let s = Bytes.sub_string c.b c.pos n in
  c.pos <- c.pos + n;
  s

let decode_payload b off len =
  let c = { b; pos = off; stop = off + len } in
  let r =
    match get_u8 c with
    | 1 ->
      let session = get_str c ~what:"session name" ~cap:max_string_len in
      let robot = get_str c ~what:"robot spec" ~cap:max_string_len in
      let chain_fp = get_int c in
      let dof = get_u32 c in
      if dof > max_dof then raise (Defect (Malformed "dof out of range"));
      Opened { session; robot; chain_fp; dof }
    | 2 ->
      let session = get_str c ~what:"session name" ~cap:max_string_len in
      let ordinal = get_u32 c in
      let theta =
        match get_u8 c with
        | 0 -> None
        | 1 ->
          let dof = get_u32 c in
          if dof > max_dof then raise (Defect (Malformed "dof out of range"));
          Some (get_floats c dof)
        | _ -> raise (Defect (Malformed "bad theta presence flag"))
      in
      let reply = get_str c ~what:"reply payload" ~cap:max_reply_len in
      Committed { session; ordinal; theta; reply }
    | 3 ->
      let session = get_str c ~what:"session name" ~cap:max_string_len in
      Closed { session }
    | tag -> raise (Defect (Malformed (Printf.sprintf "unknown record tag %d" tag)))
  in
  if c.pos <> c.stop then raise (Defect (Malformed "trailing record bytes"));
  r

(* ---- streaming reader -------------------------------------------------

   Replay reads the file once, front to back, through one buffer of
   [buffer_bytes] (less for a smaller file), grown only for a record
   larger than itself: neither the file nor a list of its records is
   ever held.  The records wholly inside the buffer are checksummed up
   to [batch] at a time by {!Checksum.verify} (four interleaved hash
   chains), then decoded and handed to the fold in file order.  The
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
  let rec loop acc =
    let count, stop = scan r spans in
    let bad = Checksum.verify r.buf ~spans ~count in
    let rec decode acc i =
      if i = count then Ok acc
      else if i = bad then Error (acc, Checksum_mismatch)
      else
        let off = spans.(2 * i) and n = spans.((2 * i) + 1) in
        match decode_payload r.buf off n with
        | record ->
          r.lo <- off + n + 8;
          decode (f acc record) (i + 1)
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
  match read path ~init:[] ~f:(fun records r -> r :: records) with
  | Error e -> Error e
  | Ok None -> Error Truncated
  | Ok (Some (records, _, _, defect)) -> Ok (List.rev records, defect)

(* ---- append handle ---------------------------------------------------- *)

type t = {
  oc : out_channel;
  lock : Mutex.t;
  own : staging; (* [append]'s, used under [lock] *)
  mutable appended : int;
}

let handle oc = { oc; lock = Mutex.create (); own = staging (); appended = 0 }

let open_fold path ~init ~f =
  let fresh () =
    match open_out_bin path with
    | oc ->
      output_string oc magic;
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int version);
      output_bytes oc b;
      flush oc;
      Ok (handle oc, init, None)
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
      | oc -> Ok (handle oc, acc, defect)
      | exception Unix.Unix_error (e, _, _) ->
        Error (Io (Unix.error_message e)))

let open_ path =
  Result.map
    (fun (t, records, defect) -> (t, List.rev records, defect))
    (open_fold path ~init:[] ~f:(fun records r -> r :: records))

(* called with [lock] held: one output and one flush for everything
   staged *)
let output_staged t (st : staging) =
  output t.oc st.buf 0 st.len;
  flush t.oc;
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

let close t =
  Mutex.lock t.lock;
  close_out_noerr t.oc;
  Mutex.unlock t.lock
