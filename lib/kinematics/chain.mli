open Dadu_linalg

(** Serial kinematic chains (open-chain manipulators).

    A chain is an ordered array of links, each a DH description plus joint
    limits, with optional fixed base and tool transforms.  The 12–100-DOF
    manipulators of the paper's evaluation are values of this type. *)

type link = { name : string; joint : Joint.t; dh : Dh.t }

type t

val make : ?name:string -> ?base:Mat4.t -> ?tool:Mat4.t -> link array -> t
(** Raises [Invalid_argument] on an empty link array. *)

val name : t -> string

val dof : t -> int

val links : t -> link array
(** The underlying links (do not mutate, as {!base}). *)

val link : t -> int -> link

val base : t -> Mat4.t
(** The chain's own base transform (do not mutate: chains are shared,
    and {!fingerprint} is computed once). *)

val tool : t -> Mat4.t
(** The chain's own tool transform (do not mutate, as {!base}). *)

val reach : t -> float
(** Conservative workspace radius: sum over links of
    [|a| + |d| + prismatic span], used for sanity checks and target
    scaling.  [infinity] if a prismatic joint is unbounded. *)

val clamp_config : t -> Vec.t -> Vec.t
(** Component-wise joint-limit clamp (fresh vector). *)

val config_inside : t -> Vec.t -> bool

val check_config : t -> Vec.t -> unit
(** Raises [Invalid_argument] if the vector length differs from [dof]. *)

val fingerprint : t -> int
(** Structural identity hash (FNV-1a over the IEEE-754 bits of every DH
    parameter, joint limit, and the base/tool transforms).  Excludes the
    chain name: geometrically identical chains fingerprint equal.  Two
    different robots with the same DOF count get different fingerprints
    with overwhelming probability — used to key seed caches, session
    slots and posture libraries per chain, and stored in journals and
    posture library files.  Computed once by {!make}: this is a field
    read. *)

val pp : Format.formatter -> t -> unit
