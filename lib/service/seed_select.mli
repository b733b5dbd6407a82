open Dadu_linalg
open Dadu_kinematics

(** Multi-seed speculative starts: the paper's speculate-then-select,
    lifted from step sizes to seed joint vectors.

    Given a request, up to [candidates] starting configurations are
    assembled in a fixed priority order — the request's own [θ₀], the
    trajectory session's previous-waypoint solution (the temporal warm
    start, see {!Session}), the posture-library nearest neighbour, the
    clamped zero posture, then Gaussian perturbations of the
    best-scoring base — each scored by its first-iteration FK error
    (squared end-effector distance to the target, computed with the
    {!Dadu_kinematics.Fk} row-scoring kernel), and only the argmin
    winner is committed as the start the solver chain sees.  Selection
    runs a whole scheduler wave at once ({!choose_wave}); a single
    request is a wave of one.

    Determinism contract: the winner is a pure function of the request's
    {!spec} (ordinal, chain, target, θ₀, session seed, library row).
    Perturbation noise is seeded from the request ordinal and the
    perturbation index alone, rows are scored independently, and
    ties break to the earliest (highest-priority) candidate — so replies
    are byte-identical across pool sizes (pinned by test against an
    independent per-candidate oracle).

    Steady state allocates only the returned source array: the scratch
    owns every buffer and winners are written into caller-supplied
    vectors (pinned by the alloc suite for the perturbation-free
    candidate set). *)

type source = Theta0 | Session | Library | Zero | Perturbed
(** Where the winning seed came from, in assembly priority order. *)

val source_name : source -> string
(** ["theta0"], ["session"], ["library"], ["zero"], ["perturbed"]. *)

type t
(** Reusable scratch: a flat row-major candidate θ plane (joint [i] of
    row [k] at [k·tstride + i]), per-row target planes, and the
    SoA position/error planes of the row-scoring kernel
    ({!Dadu_kinematics.Fk.score_rows_into}).  The orchestration is not
    thread-safe — the service owns one and calls it only between the
    scheduler's parallel phases — but {!choose_wave} internally fans its
    scoring sweeps out over a pool (disjoint plane rows; per-domain FK
    scratches via {!Dadu_core.Workspace.local}). *)

val create : unit -> t

type spec = {
  ordinal : int;  (** request's stable ordinal (perturbation noise key) *)
  chain : Chain.t;
  tx : float;
  ty : float;
  tz : float;  (** target position *)
  theta0 : Vec.t;  (** the request's own start (borrowed, not mutated) *)
  session_seed : Vec.t option;
      (** frozen session warm-start slot (the previous waypoint's
          solution), resolved in the serial snapshot pass *)
  library : Posture_library.t option;
      (** the library, only when it {!Posture_library.matches} the chain *)
  library_index : int;
      (** frozen nearest-neighbour posture row, [-1] for none; resolved
          in the serial snapshot pass (the NN scratch is not
          thread-safe) *)
  candidates : int;
  scale : float;  (** perturbation std-dev (radians) *)
  dst : Vec.t;  (** the winning start is written here (length dof) *)
}
(** One request's frozen selection inputs: every read of mutable serial
    state ({!Posture_library} NN, the session slot) is captured by the
    service's serial snapshot pass, so the assembly and scoring passes
    touch no shared state. *)

val choose_wave :
  t -> ?pool:Dadu_util.Domain_pool.t -> spec array -> source array
(** Selects every spec of one scheduler wave: each spec's base
    candidates are packed into contiguous rows of the shared θ plane and
    scored in chunked {!Dadu_kinematics.Fk.score_rows_into} sweeps
    (parallel across [pool] when given, with a grain of a few rows);
    per-request base argmins, perturbed-row assembly from each winner,
    a second fused sweep, and the final winner commits run serially in
    ordinal order.  Returns each spec's winning source and writes the
    winning start (clamped to the chain's joint limits) into its [dst].

    [candidates] must be at least 1; [scale] is the perturbation std-dev
    (radians).  [session_seed] — the trajectory session's previous
    converged solution — ranks just below the request's own [θ₀]; it
    and the library posture are used only when present
    (the library only with [library_index >= 0]).  With [candidates = 1]
    the request's own [θ₀] is returned unscored (clamped), preserving the
    non-speculative path exactly.

    Bit-parity contract (pinned by test): for every pool size —
    including none — and every wave composition, each spec's winner is
    bit-equal to scoring its candidates one at a time in priority order,
    because rows are assembled by the same code in the same order, rows
    are scored independently (any chunking equals serial scoring), and
    the split argmin preserves the earliest-row tie-break. *)
