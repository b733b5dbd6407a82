open Dadu_linalg

(** Warm-start seed cache keyed by discretized workspace cells.

    IKSel-style observation: a good initial configuration slashes iteration
    counts, and for IK "good" is well-approximated by "solved a nearby
    target before".  Targets are bucketed on a uniform grid of side
    [cell_size] meters; each (DOF, cell) holds the most recently stored
    solution for a target in that cell.  Lookups for a target in an
    occupied cell return that configuration as the seed.

    Eviction is LRU over cells (both lookups and stores refresh recency),
    bounded by [capacity].  Keys include the problem's DOF {e and} the
    chain's structural identity ([Chain.fingerprint]): two different robots
    that happen to share a DOF count occupy disjoint key spaces, so
    heterogeneous batches cannot cross-pollinate seeds.

    Not thread-safe: the service consults it only from the scheduler's
    serial prepare/commit phases, which is also what makes batch results
    independent of the domain-pool size. *)

type t

val create : ?capacity:int -> cell_size:float -> unit -> t
(** [capacity] (default 4096) is the maximum number of live cells;
    [cell_size] must be positive.  Raises [Invalid_argument] otherwise. *)

val cell_size : t -> float

val capacity : t -> int

val length : t -> int
(** Live cells. *)

val find : t -> chain_id:int -> dof:int -> Vec3.t -> Vec.t option
(** Seed for a target, if its (chain, DOF, cell) bucket is occupied.
    [chain_id] is the requesting chain's [Chain.fingerprint].  Returns a
    fresh copy (callers clamp it to their chain's joint limits).  Counts
    one hit or one miss.  A non-finite target is a miss. *)

val store : t -> chain_id:int -> dof:int -> target:Vec3.t -> Vec.t -> unit
(** Record a solved configuration for [target], replacing the cell's
    previous occupant.  The vector is copied.  Non-finite targets are
    ignored.  Raises [Invalid_argument] if the vector length is not
    [dof]. *)

val hits : t -> int

val misses : t -> int
