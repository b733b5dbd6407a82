open Dadu_linalg
open Dadu_kinematics

(* Recent final replies, kept verbatim for duplicate replay: a
   reconnecting client that resends an already-answered waypoint gets
   the original bytes back instead of a second solve — the at-most-once
   half of the reconnect contract (DESIGN.md §16).  Bounded: the ring
   holds exactly the remembered ordinals in (newest - ring_capacity,
   newest], in slot [ordinal mod ring_capacity]; a resend further behind
   is answered with a typed [stale] error by the server.  The bytes sit
   in a slab off the OCaml heap: 128 replies per session, live for as
   long as the session, would otherwise raise the major heap's target by
   their size times the GC's space overhead. *)
let ring_capacity = 128

(* Where the session's live journal records lie: the records replay
   needs to rebuild this session as the whole journal rebuilds it, which
   is what a compaction copies (DESIGN.md §16).  Replay keeps the last
   commit (its ordinal resumes the counter), the last commit with θ
   (the slot) and, like the ring, the commits of the last 128 ordinals
   journaled; the journal holds no shed, so this window follows the
   newest journaled ordinal, not [newest].  A span is an offset and a
   length, the length 0 when there is no record. *)
type spans = {
  mutable opened_at : int;
  mutable opened_len : int;
  mutable jnewest : int; (* highest journaled ordinal; -1 before any *)
  joffsets : int array;
      (* per slot: the record of the window's ordinal in that slot, if
         the journal holds one (its length is then positive) *)
  jlengths : int array;
  mutable window_bytes : int; (* the window's records' bytes *)
  mutable theta_ordinal : int; (* the last commit with θ *)
  mutable theta_at : int;
  mutable theta_len : int;
  mutable last_ordinal : int; (* the last commit *)
  mutable last_at : int;
  mutable last_len : int;
}

type t = {
  name : string;
  chain : Chain.t;
  mutable slot : Vec.t option;
      (* last converged joint vector; the temporal warm start *)
  mutable seq : int; (* next waypoint ordinal (enqueue-side counter) *)
  mutable base : int; (* first ordinal this process handed out *)
  mutable newest : int; (* highest ordinal remembered; -1 before any *)
  ring_ordinals : int array; (* per slot: the ordinal held, -1 if none *)
  ring : Slab.t; (* per slot: its final reply bytes *)
  journal : spans;
}

let create ~name ~chain =
  {
    name;
    chain;
    slot = None;
    seq = 0;
    base = 0;
    newest = -1;
    ring_ordinals = Array.make ring_capacity (-1);
    ring = Slab.create ~slots:ring_capacity;
    journal =
      {
        opened_at = 0;
        opened_len = 0;
        jnewest = -1;
        joffsets = Array.make ring_capacity 0;
        jlengths = Array.make ring_capacity 0;
        window_bytes = 0;
        theta_ordinal = -1;
        theta_at = 0;
        theta_len = 0;
        last_ordinal = -1;
        last_at = 0;
        last_len = 0;
      };
  }

let name t = t.name

let chain t = t.chain

let next_ordinal t =
  let o = t.seq in
  t.seq <- t.seq + 1;
  o

let accepted t = t.seq

(* The slot is only offered to the chain that filled it: a mismatched
   fingerprint (different robot under the same session object) is treated
   as cold rather than risking a wrong-DOF blit. *)
let seed t ~chain_fp =
  if chain_fp = Chain.fingerprint t.chain then t.slot else None

let store t ~chain_fp theta =
  if chain_fp = Chain.fingerprint t.chain then begin
    let dst =
      match t.slot with
      | Some dst when Array.length dst = Array.length theta -> dst
      | Some _ | None ->
        let dst = Array.make (Array.length theta) 0. in
        t.slot <- Some dst;
        dst
    in
    Array.blit theta 0 dst 0 (Array.length theta)
  end

let in_window t ordinal = ordinal >= 0 && ordinal > t.newest - ring_capacity

let remember t ~ordinal b ~off ~len =
  if not (Slab.released t.ring) then begin
    if ordinal > t.newest then t.newest <- ordinal;
    if in_window t ordinal then begin
      let i = ordinal mod ring_capacity in
      t.ring_ordinals.(i) <- ordinal;
      Slab.set_sub t.ring i b ~off ~len
    end
  end

let remember_reply t ~ordinal payload =
  remember t ~ordinal (Bytes.unsafe_of_string payload) ~off:0
    ~len:(String.length payload)

(* an in-window ordinal's slot holds it or an older ordinal, never a
   newer one: two ordinals of one slot are [ring_capacity] apart *)
let held t ordinal =
  in_window t ordinal && t.ring_ordinals.(ordinal mod ring_capacity) = ordinal

let recall_reply t ~ordinal =
  if held t ordinal then Some (Slab.get t.ring (ordinal mod ring_capacity))
  else None

let release t =
  Slab.release t.ring;
  Array.fill t.ring_ordinals 0 ring_capacity (-1)

(* Handed out here, not answered yet, and not scrolled off the ring. *)
let awaiting_reply t ~ordinal =
  ordinal >= t.base && ordinal < t.seq && in_window t ordinal
  && not (held t ordinal)

(* ---- journal spans ---- *)

let journal_opened t ~off ~len =
  t.journal.opened_at <- off;
  t.journal.opened_len <- len

let in_journal_window j o = o >= 0 && o > j.jnewest - ring_capacity

(* the record at [at] is the window's record of [ordinal] *)
let in_window_spans j ~ordinal ~at =
  in_journal_window j ordinal
  && j.jlengths.(ordinal mod ring_capacity) > 0
  && j.joffsets.(ordinal mod ring_capacity) = at

let clear_slot j i =
  if j.jlengths.(i) > 0 then begin
    j.window_bytes <- j.window_bytes - j.jlengths.(i);
    j.jlengths.(i) <- 0
  end

let journal_commit t ~ordinal ~theta ~off ~len =
  let j = t.journal in
  if ordinal > j.jnewest then begin
    (* the ordinals that leave the window as it moves up *)
    if ordinal - j.jnewest >= ring_capacity then
      for i = 0 to ring_capacity - 1 do
        clear_slot j i
      done
    else
      for o = j.jnewest - ring_capacity + 1 to ordinal - ring_capacity do
        if o >= 0 then clear_slot j (o mod ring_capacity)
      done;
    j.jnewest <- ordinal
  end;
  if in_journal_window j ordinal then begin
    let i = ordinal mod ring_capacity in
    clear_slot j i;
    j.joffsets.(i) <- off;
    j.jlengths.(i) <- len;
    j.window_bytes <- j.window_bytes + len
  end;
  if theta then begin
    j.theta_ordinal <- ordinal;
    j.theta_at <- off;
    j.theta_len <- len
  end;
  j.last_ordinal <- ordinal;
  j.last_at <- off;
  j.last_len <- len

(* The last commit with θ, and the last commit, are live beside the
   window when the window does not hold them already; each once. *)
let theta_extra j =
  j.theta_len > 0 && not (in_window_spans j ~ordinal:j.theta_ordinal ~at:j.theta_at)

let last_extra j =
  j.last_len > 0
  && (not (in_window_spans j ~ordinal:j.last_ordinal ~at:j.last_at))
  && not (j.theta_len > 0 && j.last_at = j.theta_at)

let live_bytes t =
  let j = t.journal in
  j.opened_len + j.window_bytes
  + (if theta_extra j then j.theta_len else 0)
  + if last_extra j then j.last_len else 0

let max_live_records = ring_capacity + 3

let live_spans_into t (spans : Journal.spans) pos =
  let j = t.journal in
  let pos = ref pos in
  let add at len =
    Bigarray.Array1.set spans !pos at;
    Bigarray.Array1.set spans (!pos + 1) len;
    pos := !pos + 2
  in
  if j.opened_len > 0 then add j.opened_at j.opened_len;
  for i = 0 to ring_capacity - 1 do
    if j.jlengths.(i) > 0 then add j.joffsets.(i) j.jlengths.(i)
  done;
  if theta_extra j then add j.theta_at j.theta_len;
  if last_extra j then add j.last_at j.last_len;
  !pos

let relocate t f =
  let j = t.journal in
  if j.opened_len > 0 then j.opened_at <- f j.opened_at;
  (* a record the window holds too moves to the same offset, so the
     window checks of [theta_extra] and [last_extra] still hold *)
  if j.theta_len > 0 then j.theta_at <- f j.theta_at;
  (* the window in ordinal order, which is file order *)
  for k = 1 to ring_capacity do
    let i = (j.jnewest + k) mod ring_capacity in
    if j.jlengths.(i) > 0 then j.joffsets.(i) <- f j.joffsets.(i)
  done;
  if j.last_len > 0 then j.last_at <- f j.last_at

(* Journal replay: the journal holds commits in ordinal order, so after
   the last one the counter resumes right after it, the slot holds the
   last converged configuration and the ring the last replies — the
   state an uninterrupted server would hold with all in-flight work
   excluded.  θ and the reply are read from the replay's buffer, θ into
   the slot's own array. *)
let replay_commit t v =
  let ordinal = Journal.ordinal v in
  t.seq <- ordinal + 1;
  t.base <- ordinal + 1;
  let dof = Journal.theta_length v in
  if dof >= 0 then begin
    let dst =
      match t.slot with
      | Some dst when Array.length dst = dof -> dst
      | Some _ | None ->
        let dst = Array.create_float dof in
        t.slot <- Some dst;
        dst
    in
    Journal.theta_into v dst
  end;
  remember t ~ordinal (Journal.buffer v) ~off:(Journal.reply_at v)
    ~len:(Journal.reply_length v);
  journal_commit t ~ordinal ~theta:(dof >= 0) ~off:(Journal.offset v)
    ~len:(Journal.length v)
