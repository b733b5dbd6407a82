open Dadu_linalg

(** Forward kinematics: Eq. 10 of the paper, [f(θ) = ∏ ⁱ⁻¹Tᵢ].

    The speculative search evaluates FK once per candidate per iteration,
    so this is the hottest code in the library.  {!scratch} owns every
    buffer the kernels need — the two ping-pong accumulators, the
    compiled per-link constants ([cos α], [sin α], [a], [d], [θ₀] and the
    joint kind, shared by every fold), and (lazily) a frame array — so
    the steady-state paths ({!run}, {!position_into}, {!frames_into} and
    the candidate kernels) perform zero minor-heap allocation.  The
    candidate kernels' per-link fold and {!frames_into}'s link loop each
    run as one C loop per call (fk_stubs.c) whose results are
    bit-identical to the OCaml expression order they replaced; Quick-IK's
    {!speculate_argmin} folds with a vectorized [sincos] instead
    (fk_filter.c, up to 8 doubles wide) and proves its winner equal to
    theirs. *)

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
    entries of 4×4 buffers, neighbours distinct; entries past [dof] are
    not touched.  The link loop runs in C: each link's transform is built
    from the scratch's compiled constants with the entries and products
    of {!Dh.transform_at} and multiplied as {!Mat4.mul_affine_into} does,
    so frames are bit-identical to folding [Dh.transform_at] matrices
    with it.  Allocation-free.  Raises [Invalid_argument] when [q] does
    not match the chain, [dst] is too short, one of its first [dof+1]
    entries is not 16 floats long, two neighbours share a buffer, or
    [dst.(dof)] is the chain's own tool transform. *)

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
(** The exact speculation sweep: like {!positions_many_into} restricted
    to candidates [k ∈ \[lo, hi)] of a buffer laid out with plane stride
    [stride] ([pos] has [3·stride] floats), and additionally writes each
    candidate's *squared* distance to the target [(tx, ty, tz)] into
    [err2.(k)] in the same pass — the argmin scan needs no per-candidate
    [sqrt].  Candidates are evaluated independently, so partitioning
    [\[0, count)] into ranges (one call per range, same buffers) yields
    bit-identical [pos]/[err2] contents to a single full-range call; with
    a {!precompile}d scratch the ranges may run on concurrent domains.
    Quick-IK calls {!speculate_argmin}, which needs this sweep only on a
    near-tie; the accelerator simulator reads every candidate's err² from
    it.  Allocation-free. *)

val speculate_argmin :
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
  int
(** [speculate_argmin] (same arguments as {!speculate_range_into}, with
    [lo < hi]) returns the candidate Quick-IK keeps: the first-index
    argmin over [\[lo, hi)] of the squared errors {!speculate_range_into}
    writes, bit for bit — the same winner, so the same θ, iterations and
    replies — at a fraction of the cost.

    A filtered sweep folds every candidate once with an inlined,
    vectorized [sincos] instead of glibc's — over a step-size ladder of
    16 to 64 candidates (Quick-IK's Uniform and Extended strategies), 16
    per link and the rest by angle addition — and bounds how far each
    fast err² can lie from the exact one (DESIGN.md §9).  When one candidate's
    interval lies below every other's it wins outright; otherwise the
    exact fold re-scores the narrowest range holding every candidate
    whose interval reaches the lowest upper bound, and the first-index
    argmin there wins.  The sweep declines the fast path — and runs the
    exact sweep over the whole range — unless every coefficient, fast
    err² and the bound are finite and every revolute angle bound
    [|θ₀ᵢ| + |θᵢ| + max|c_k|·|Δθᵢ|] is at most 2²⁰.  A solve stuck
    short of an unreachable target can tie most candidates in every
    sweep and then pays both folds.

    Afterwards [pos] and [err2] hold the fast sweep's values in
    [\[lo, hi)], except in a re-scored range (and after a declined sweep),
    where they hold {!speculate_range_into}'s.  Each call is counted on
    the scratch ({!filter_counts}), so unlike {!speculate_range_into}
    concurrent calls must not share one.  Allocation-free.  Raises
    [Invalid_argument] as {!speculate_range_into} does, and on an empty
    range. *)

type filter_counts = {
  sweeps : int;  (** {!speculate_argmin} calls *)
  ladders : int;
      (** calls whose fast fold took sin/cos by angle addition over a
          step-size ladder, two [sincos] per link *)
  rescores : int;  (** calls that re-scored a sub-range exactly *)
  declined : int;
      (** calls that ran the exact sweep over the whole range because the
          bound could not be trusted *)
}

val filter_counts : scratch -> filter_counts
(** The scratch's cumulative {!speculate_argmin} counts.  A scratch
    belongs to one domain, so these are plain ints. *)

val sweep_isa : unit -> string
(** Which clone of the filtered sweep's candidate fold runs on this CPU:
    ["x86-64-v4"] (AVX-512, 8 doubles per instruction), ["avx2"] (4) or
    ["baseline"] (SSE2, 2; also every build without function
    multiversioning).  The clones compute the same values, so this names
    only the speed; benchmark files record it so that a change of host
    reads as a change of clone. *)

val fast_sincos_into : x:Vec.t -> sin:Vec.t -> cos:Vec.t -> unit
(** [fast_sincos_into ~x ~sin ~cos] writes the filtered sweep's inlined
    sine and cosine of each [x.(i)] into [sin.(i)] and [cos.(i)]: within
    2u (u = 2⁻⁵³) of the true values for [|x| ≤ 2²⁰], the accuracy the
    filter's bound assumes.  Exposed for that accuracy test; raises
    [Invalid_argument] when [sin] or [cos] is shorter than [x], or when
    some [x.(i)] is non-finite or past 2²¹ in magnitude. *)

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
