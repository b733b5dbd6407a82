open Dadu_linalg
open Dadu_kinematics

(* Recent final replies, kept verbatim for duplicate replay: a
   reconnecting client that resends an already-answered waypoint gets
   the original bytes back instead of a second solve — the at-most-once
   half of the reconnect contract (DESIGN.md §16).  Bounded: the ring
   holds exactly the remembered ordinals in (newest - ring_capacity,
   newest], in slot [ordinal mod ring_capacity]; a resend further behind
   is answered with a typed [stale] error by the server. *)
let ring_capacity = 128

type t = {
  name : string;
  chain : Chain.t;
  chain_fp : int;
  mutable slot : Vec.t option;
      (* last converged joint vector; the temporal warm start *)
  mutable seq : int; (* next waypoint ordinal (enqueue-side counter) *)
  mutable base : int; (* first ordinal this process handed out *)
  mutable newest : int; (* highest ordinal remembered; -1 before any *)
  ring_ordinals : int array; (* per slot: the ordinal held, -1 if none *)
  ring_replies : string array; (* per slot: its final reply bytes *)
}

let create ~name ~chain =
  {
    name;
    chain;
    chain_fp = Chain.fingerprint chain;
    slot = None;
    seq = 0;
    base = 0;
    newest = -1;
    ring_ordinals = Array.make ring_capacity (-1);
    ring_replies = Array.make ring_capacity "";
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
let seed t ~chain_fp = if chain_fp = t.chain_fp then t.slot else None

let store t ~chain_fp theta =
  if chain_fp = t.chain_fp then begin
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

let remember_reply t ~ordinal payload =
  if ordinal > t.newest then t.newest <- ordinal;
  if in_window t ordinal then begin
    let i = ordinal mod ring_capacity in
    t.ring_ordinals.(i) <- ordinal;
    t.ring_replies.(i) <- payload
  end

(* an in-window ordinal's slot holds it or an older ordinal, never a
   newer one: two ordinals of one slot are [ring_capacity] apart *)
let held t ordinal =
  in_window t ordinal && t.ring_ordinals.(ordinal mod ring_capacity) = ordinal

let recall_reply t ~ordinal =
  if held t ordinal then Some t.ring_replies.(ordinal mod ring_capacity)
  else None

(* Handed out here, not answered yet, and not scrolled off the ring. *)
let awaiting_reply t ~ordinal =
  ordinal >= t.base && ordinal < t.seq && in_window t ordinal
  && not (held t ordinal)

(* Journal replay: the journal holds commits in ordinal order, so after
   the last one the counter resumes right after it, the slot holds the
   last converged configuration and the ring the last replies — the
   state an uninterrupted server would hold with all in-flight work
   excluded. *)
let replay_commit t ~ordinal ~theta reply =
  t.seq <- ordinal + 1;
  t.base <- ordinal + 1;
  (match theta with Some _ -> t.slot <- theta | None -> ());
  remember_reply t ~ordinal reply
