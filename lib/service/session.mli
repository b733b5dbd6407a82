open Dadu_linalg
open Dadu_kinematics

(** Trajectory-tracking session state: the temporal warm-start slot.

    A session follows one client streaming Cartesian waypoints for one
    robot (the forward-dynamics tracking workload of Scherzinger et al.).
    Its heart is a single seed slot holding the {e previous waypoint's}
    converged joint vector: successive waypoints are close in workspace,
    so warm-starting each solve from the last solution drops Quick-IK
    from tens of iterations to a handful (pinned by the session bench
    entries and the serving tests).

    Determinism contract: the slot is read only in the scheduler's serial
    prepare phase and written only in its serial commit phase, in request
    ordinal order ({!Service} enforces a wave cut so two waypoints of the
    same session never share a wave).  A session's replies are therefore
    a pure function of its own waypoint sequence — independent of pool
    size and of how other sessions' requests interleave with it
    (DESIGN.md §15).  No other request's answer is ever offered as a
    seed: the slot is scoped to the trajectory, which is what makes the
    independence argument hold.

    Not thread-safe: mutate only from the scheduler's serial phases (the
    slot) or from a single enqueue thread ({!next_ordinal}). *)

type t

val create : name:string -> chain:Chain.t -> t
(** A fresh, cold session for [chain].  [name] is only a label. *)

val name : t -> string

val chain : t -> Chain.t

val next_ordinal : t -> int
(** The next waypoint's stable ordinal: 0, 1, 2, … — the enqueue-side
    counter the server assigns so replies are keyed to the session's own
    sequence, not to arrival interleaving. *)

val accepted : t -> int
(** Waypoints accepted (ordinals handed out) so far — an enqueue-side
    count, so it is deterministic for a fixed client stream even while
    solves are in flight. *)

val seed : t -> chain_fp:int -> Vec.t option
(** The slot, if filled by a chain with this fingerprint (else [None]:
    a mismatched robot is served cold rather than risking a wrong-DOF
    seed).  The returned vector is the live slot — callers must copy or
    clamp into their own buffer before the next commit. *)

val store : t -> chain_fp:int -> Vec.t -> unit
(** Overwrite the slot with a converged configuration (copied).  Ignored
    on a fingerprint mismatch.  Call only from the serial commit phase. *)

val remember_reply : t -> ordinal:int -> string -> unit
(** Retain the final reply bytes for [ordinal] — its committed reply,
    or the [overloaded] reply that shed it — so a reconnecting client
    resending an already-answered waypoint can be answered verbatim
    instead of solved twice.  The ring is a window, not a queue: it
    holds exactly the remembered ordinals in (newest − 128, newest],
    newest being the highest ordinal ever remembered, however they
    arrived — out of order, or with ordinals never remembered in
    between (a shed missing from a replayed journal).  An ordinal
    already below the window is not retained.  Call from the server's
    delivery and shed paths, under the same lock as {!recall_reply}. *)

val recall_reply : t -> ordinal:int -> string option
(** The retained reply for [ordinal], if it is within the window. *)

val awaiting_reply : t -> ordinal:int -> bool
(** [ordinal] was handed out by this process ({!next_ordinal}) and its
    reply is still to come: not yet remembered, and not below the
    window.  Ordinals issued before a {!replay_commit} are never
    awaited — whatever of them the journal did not hold is gone. *)

val replay_commit :
  t -> ordinal:int -> theta:Vec.t option -> string -> unit
(** Apply one journaled commit of [ordinal] during journal replay: the
    ordinal counter resumes right after it (ordinals handed out but
    never committed before the crash are reissued to the resending
    client), [theta] (taken, not copied) becomes the slot when the
    solve converged, and the reply enters the window.  Applied to a
    fresh session in journal order, the commits leave exactly the state
    an uninterrupted server would hold with in-flight work excluded,
    which is what makes post-restart replies byte-identical (DESIGN.md
    §16). *)
