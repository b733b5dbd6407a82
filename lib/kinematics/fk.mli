open Dadu_linalg

(** Forward kinematics: Eq. 10 of the paper, [f(θ) = ∏ ⁱ⁻¹Tᵢ].

    The speculative search evaluates FK once per candidate per iteration,
    so this is the hottest code in the library.  {!scratch} owns every
    buffer the kernels need — the two ping-pong accumulators, the
    per-link local transform, the compiled per-link constants
    ([cos α], [sin α], [a], [d], [θ₀] and the joint kind, shared by every
    fold), and (lazily) a frame array — so the steady-state paths
    ({!run}, {!position_into}, {!frames_into} and the candidate kernels)
    perform zero minor-heap allocation.  The candidate kernels' per-link
    fold runs as one C loop per sweep (fk_stubs.c) whose results are
    bit-identical to the OCaml expression order it replaced. *)

type scratch

val make_scratch : ?dof:int -> unit -> scratch
(** [make_scratch ~dof ()] preallocates the frame buffer for a [dof]-link
    chain; without [dof] the frame buffer is grown on first use. *)

val run : scratch:scratch -> Chain.t -> Vec.t -> unit
(** Runs the full chain product (base, links, tool) into the scratch
    accumulator.  Allocation-free.  Read the result with
    {!end_transform} or {!position_into}. *)

val end_transform : scratch -> Mat4.t
(** The accumulator holding the end-effector transform of the most recent
    {!run}.  Returned by pointer: the contents are overwritten by the next
    {!run} or {!frames_into} on the same scratch. *)

val position_into : scratch:scratch -> dst:Vec.t -> Chain.t -> Vec.t -> unit
(** [position_into ~scratch ~dst chain q] writes the end-effector position
    [f(θ)] into [dst] (length 3).  Allocation-free. *)

val position : ?scratch:scratch -> Chain.t -> Vec.t -> Vec3.t
(** End-effector position [f(θ)] in the base frame.  Without [scratch] a
    fresh workspace is allocated, so concurrent calls from different
    domains are safe; hot loops should pass their own scratch (the
    returned {!Vec3.t} record still allocates — use {!position_into} in
    allocation-free code). *)

val pose : Chain.t -> Vec.t -> Mat4.t
(** Full end-effector transform (base and tool included). *)

val frames_into : scratch:scratch -> dst:Mat4.t array -> Chain.t -> Vec.t -> unit
(** [frames_into ~scratch ~dst chain q] fills [dst.(0..dof)] with the
    cumulative transforms: [dst.(i)] is [⁰Tᵢ] (base through link [i-1]),
    and [dst.(dof)] includes the tool.  [dst] must have at least [dof+1]
    entries of distinct 4×4 buffers.  Each link's transform is built from
    the scratch's compiled constants with the entries and products of
    {!Dh.transform_at}, so frames are bit-identical to folding
    [Dh.transform_at] matrices.  Allocation-free. *)

val frames : ?scratch:scratch -> Chain.t -> Vec.t -> Mat4.t array
(** Cumulative transforms: [frames.(i)] is [⁰Tᵢ] (base through link [i-1]),
    so the array has [dof+1] entries; the last includes the tool.
    [frames.(0)] is the base transform.  This is the [¹Tᵢ] set the paper's
    Jacobian stage consumes.  With [scratch] the scratch-owned frame buffer
    is returned (valid until the next [frames] call on the same scratch);
    without it a fresh array is allocated per call. *)

val precompile : scratch -> Chain.t -> unit
(** Compiles the chain's per-link constants into the scratch (no-op when
    already compiled for this chain).  Call once before sharing a scratch
    between concurrent {!speculate_range_into} sweeps over disjoint
    candidate ranges: compilation mutates the scratch, the sweeps only
    read it. *)

val positions_many_into :
  scratch:scratch ->
  dst:Vec.t ->
  Chain.t ->
  theta:Vec.t ->
  dtheta:Vec.t ->
  coeffs:Vec.t ->
  count:int ->
  unit
(** [positions_many_into ~scratch ~dst chain ~theta ~dtheta ~coeffs ~count]
    computes the end-effector positions of the [count] candidate
    configurations [θ + coeffs.(k)·Δθ], [k ∈ \[0, count)], in one
    link-major backward (tool→base) sweep: per link the compiled DH
    constants are loaded once and only the position column is folded
    ([p ← R·p + t], one cos/sin pair + ~15 flops/link/candidate vs ~39 for
    the pose product).  The fold runs in C with the IEEE operation order
    and libm calls of its OCaml reference, bit for bit.
    [dst] is a flat SoA buffer of at least [3·count] floats: x-coordinates
    at [\[0, count)], y at [\[count, 2·count)], z at [\[2·count, 3·count)].
    Association order differs from {!run} (right-to-left vs left-to-right),
    so positions agree with the pose kernels up to reassociation rounding,
    not bitwise.  Allocation-free in steady state. *)

val speculate_range_into :
  scratch:scratch ->
  pos:Vec.t ->
  err2:Vec.t ->
  tx:float ->
  ty:float ->
  tz:float ->
  Chain.t ->
  theta:Vec.t ->
  dtheta:Vec.t ->
  coeffs:Vec.t ->
  stride:int ->
  lo:int ->
  hi:int ->
  unit
(** The Quick-IK speculation engine: like {!positions_many_into} restricted
    to candidates [k ∈ \[lo, hi)] of a buffer laid out with plane stride
    [stride] ([pos] has [3·stride] floats), and additionally writes each
    candidate's *squared* distance to the target [(tx, ty, tz)] into
    [err2.(k)] in the same pass — the argmin scan needs no per-candidate
    [sqrt].  Candidates are evaluated independently, so partitioning
    [\[0, count)] into ranges (one call per range, same buffers) yields
    bit-identical [pos]/[err2] contents to a single full-range call; with
    a {!precompile}d scratch the ranges may run on concurrent domains.
    Allocation-free. *)

val score_rows_into :
  scratch:scratch ->
  pos:Vec.t ->
  err2:Vec.t ->
  txs:Vec.t ->
  tys:Vec.t ->
  tzs:Vec.t ->
  Chain.t ->
  thetas:Vec.t ->
  tstride:int ->
  stride:int ->
  lo:int ->
  hi:int ->
  unit
(** Row-plane candidate scoring, the wave-fused form of
    {!speculate_range_into}: candidate [k ∈ \[lo, hi)] is the full
    configuration stored in row [k] of the flat lane-major plane [thetas]
    ([thetas.(k·tstride + i)] is joint [i]; [tstride ≥ dof], rows may be
    wider than the chain).  Each row's end-effector position lands in the
    SoA planes of [pos] (stride [stride], as in {!speculate_range_into})
    and its *squared* distance to the per-row target
    [(txs.(k), tys.(k), tzs.(k))] is fused into [err2.(k)] — per-row
    targets are what let one sweep score candidates belonging to many
    requests.  Scores are bit-identical to a degenerate
    {!speculate_range_into} call per row (zero Δθ, zero coefficient, the
    row as θ): the only arithmetic difference is the sign of a zero
    angle, which squaring erases.  Rows are evaluated independently, so
    any partition of [\[lo, hi)] into sub-ranges — including ranges run
    on concurrent domains, each with its own scratch (or one
    {!precompile}d shared scratch) — produces bit-identical [err2].
    Allocation-free. *)

val flops_per_position : int -> int
(** Floating-point operation count of one {!position} call for a [dof]-link
    chain; used by the platform cost models.  Counts the 4×4 matrix product
    chain exactly as the accelerator's FKU executes it. *)
