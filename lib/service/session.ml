open Dadu_linalg
open Dadu_kinematics

(* Recent final replies, kept verbatim for duplicate replay: a
   reconnecting client that resends an already-answered waypoint gets
   the original bytes back instead of a second solve — the at-most-once
   half of the reconnect contract (DESIGN.md §16).  Bounded: entries
   older than [ring_capacity] ordinals are evicted; a resend that far
   behind is answered with a typed [stale] error by the server. *)
let ring_capacity = 128

type t = {
  name : string;
  chain : Chain.t;
  chain_fp : int;
  mutable slot : Vec.t option;
      (* last converged joint vector; the temporal warm start *)
  mutable waypoints : int;
  mutable warm : int;
  mutable seq : int; (* next waypoint ordinal (enqueue-side counter) *)
  base : int; (* first ordinal this process handed out *)
  mutable newest : int; (* highest ordinal remembered; -1 before any *)
  replies : (int, string) Hashtbl.t; (* ordinal -> final reply bytes *)
}

let fresh ~name ~chain ~base =
  {
    name;
    chain;
    chain_fp = Chain.fingerprint chain;
    slot = None;
    waypoints = 0;
    warm = 0;
    seq = base;
    base;
    newest = -1;
    replies = Hashtbl.create 16;
  }

let create ~name ~chain = fresh ~name ~chain ~base:0

(* Rebuild a session from journal replay: [committed] waypoints are
   already durable, so the ordinal counter resumes right after them and
   the slot holds the last converged configuration — the state an
   uninterrupted server would hold with all in-flight work excluded. *)
let restore ~name ~chain ~committed ~warm ~slot =
  let t = fresh ~name ~chain ~base:committed in
  t.waypoints <- committed;
  t.warm <- warm;
  (match slot with
  | None -> ()
  | Some theta ->
    let dst = Array.make (Array.length theta) 0. in
    Array.blit theta 0 dst 0 (Array.length theta);
    t.slot <- Some dst);
  t

let name t = t.name

let chain t = t.chain

let waypoints t = t.waypoints

let warm_hits t = t.warm

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

let record t ~warm =
  t.waypoints <- t.waypoints + 1;
  if warm then t.warm <- t.warm + 1

let remember_reply t ~ordinal payload =
  Hashtbl.replace t.replies ordinal payload;
  if ordinal > t.newest then t.newest <- ordinal;
  let evict = ordinal - ring_capacity in
  if evict >= 0 then Hashtbl.remove t.replies evict

let recall_reply t ~ordinal = Hashtbl.find_opt t.replies ordinal

(* Handed out here, not answered yet, and not scrolled off the ring:
   remembering [ordinal] evicts [ordinal - ring_capacity], so an
   ordinal at or below [newest - ring_capacity] left the ring. *)
let awaiting_reply t ~ordinal =
  ordinal >= t.base && ordinal < t.seq
  && ordinal > t.newest - ring_capacity
  && not (Hashtbl.mem t.replies ordinal)

let clear t = t.slot <- None
