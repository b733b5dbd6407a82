open Dadu_linalg
open Dadu_kinematics

(** Per-chain posture bank for speculative seed starts.

    IKSel's observation is that the seed joint vector dominates numerical
    IK iteration counts; the FABRIK-hybrid line shows geometric
    initialization beats cold starts.  A posture library turns both into a
    lookup: [count] joint configurations sampled deterministically from a
    seeded RNG (uniform within joint limits, the same distribution the
    bench targets are drawn from), their end-effector positions indexed on
    a uniform grid over the reachable workspace.  At serve time the
    nearest-neighbour posture of the request target becomes one of the
    speculative seed candidates ({!Seed_select}).

    Lookup is exact nearest-neighbour: cells are scanned in expanding
    Chebyshev rings around the query cell and the scan stops once no
    unvisited ring can beat the best distance found, so the result is the
    true argmin — identical to a brute-force scan (pinned by differential
    test) — while touching O(1) cells for dense libraries.  Ties break to
    the lowest posture index, matching the brute-force oracle exactly.

    The grid is CSR over the bounding box of the sampled positions
    (cell-start offsets into one flat index array), so steady-state
    lookups allocate nothing.

    Libraries persist as flat binary files with a versioned header and a
    trailing FNV-1a checksum; {!load} rejects corrupted, truncated or
    version-mismatched files with typed errors and round-trips bit
    identically ({!save} followed by {!load} reproduces every float's
    IEEE-754 bits). *)

type t

val build :
  ?cell_size:float -> ?seed:int -> chain:Chain.t -> count:int -> unit -> t
(** [build ~chain ~count ()] samples [count] postures with
    {!Dadu_kinematics.Target.random_config} from [Rng.create seed]
    (default seed 42) and indexes their FK positions.  [cell_size]
    defaults to [reach/8] (1 m when the reach is unbounded).  The result
    is a pure function of (chain, count, seed, cell_size).  Raises
    [Invalid_argument] on a non-positive count, a non-positive or
    non-finite cell size, or a cell size so small the position bounding
    box exceeds the grid budget. *)

val chain_name : t -> string
(** Name of the chain the library was built for (informational). *)

val fingerprint : t -> int
(** {!Chain.fingerprint} of the chain the library was built for. *)

val dof : t -> int

val size : t -> int
(** Number of postures. *)

val cell_size : t -> float

val matches : t -> Chain.t -> bool
(** Structural identity: the library seeds only chains whose
    [Chain.fingerprint] (and DOF) equal the one it was built from. *)

val posture : t -> int -> Vec.t
(** Posture [i] (fresh copy).  Raises [Invalid_argument] out of range. *)

val blit_posture_into : t -> int -> Vec.t -> pos:int -> unit
(** Copy posture [i] into [dst.(pos .. pos+dof-1)], for callers packing
    postures into a flat candidate plane.  Allocation-free.  Raises
    [Invalid_argument] out of range or when the row does not fit. *)

val position : t -> int -> Vec3.t
(** End-effector position of posture [i] (allocates the record). *)

val nearest_index : t -> x:float -> y:float -> z:float -> int
(** Index of the posture whose end-effector position is closest
    (Euclidean) to the query, ties to the lowest index; [-1] when the
    query is non-finite.  Exact (differentially pinned against the
    brute-force scan).  Allocation-free. *)

val nearest : t -> Vec3.t -> (Vec.t * float) option
(** Nearest posture (fresh copy) and its end-effector distance to the
    query; [None] when the query is non-finite. *)

(** {1 Persistence} *)

type load_error =
  | Io of string  (** file unreadable/unwritable *)
  | Bad_magic  (** not a posture-library file *)
  | Unsupported_version of int  (** header version this build cannot read *)
  | Truncated  (** shorter than its header promises *)
  | Checksum_mismatch  (** payload bytes corrupted *)
  | Malformed of string  (** header fields inconsistent *)

val pp_load_error : Format.formatter -> load_error -> unit

val save : t -> string -> (unit, load_error) result
(** Write the library (flat binary, little-endian, versioned header,
    trailing FNV-1a checksum).  Only [Io] errors are possible. *)

val load : string -> (t, load_error) result
(** Read a library written by {!save}.  The grid is rebuilt from the
    stored positions (deterministically), so [load] after [save] is
    bit-identical to the original in every posture and position. *)
