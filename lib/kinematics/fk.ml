open Dadu_linalg

type scratch = {
  mutable acc : Mat4.t;
  mutable tmp : Mat4.t;
  local : Mat4.t;
  mutable frames_buf : Mat4.t array;
  (* compiled link constants for the chain last seen by [run]: 5 floats
     per link [cos α; sin α; a; d; θ₀] plus a revolute flag *)
  mutable pre : float array;
  mutable revolute : bool array;
  mutable compiled_for : Chain.t option;
}

let make_scratch ?(dof = 0) () =
  {
    acc = Mat4.identity ();
    tmp = Mat4.identity ();
    local = Mat4.identity ();
    frames_buf =
      (if dof > 0 then Array.init (dof + 1) (fun _ -> Array.make 16 0.)
       else [||]);
    pre = [||];
    revolute = [||];
    compiled_for = None;
  }

(* The link twist never changes, so cos α / sin α (half the trig of a
   naive per-link transform build) are computed once per (scratch, chain)
   pairing instead of once per link per FK evaluation.  Every fold reads
   this one table: [run], [frames_into] and the candidate sweeps. *)
let compile scratch chain =
  let links = Chain.links chain in
  let n = Array.length links in
  if Array.length scratch.pre < 5 * n then begin
    scratch.pre <- Array.make (5 * n) 0.;
    scratch.revolute <- Array.make n false
  end;
  let pre = scratch.pre and rev = scratch.revolute in
  for i = 0 to n - 1 do
    let { Chain.joint; dh; _ } = links.(i) in
    let b = 5 * i in
    pre.(b) <- cos dh.Dh.alpha;
    pre.(b + 1) <- sin dh.Dh.alpha;
    pre.(b + 2) <- dh.Dh.a;
    pre.(b + 3) <- dh.Dh.d;
    pre.(b + 4) <- dh.Dh.theta;
    rev.(i) <- (match joint.Joint.kind with
      | Joint.Revolute -> true
      | Joint.Prismatic -> false)
  done;
  scratch.compiled_for <- Some chain

let ensure_compiled scratch chain =
  match scratch.compiled_for with
  | Some c when c == chain -> ()
  | Some _ | None -> compile scratch chain

(* Folds the chain product left-to-right, ping-ponging between the two
   accumulator buffers so nothing is allocated.  Each joint's DH transform
   is folded into the running product directly — its matrix is never
   materialized — and terms against the transform's structural zeros are
   skipped (the multiply does 33 flops instead of the general 64 or the
   affine 36).  Product and association order otherwise match
   [Mat4.mul_affine_into] of [Dh.transform_at], so results agree to the
   sign of zero. *)
let run ~scratch chain q =
  Chain.check_config chain q;
  ensure_compiled scratch chain;
  let n = Chain.dof chain in
  let pre = scratch.pre and rev = scratch.revolute in
  Mat4.blit (Chain.base chain) scratch.acc;
  for i = 0 to n - 1 do
    let b = 5 * i in
    let ca = Array.unsafe_get pre b
    and sa = Array.unsafe_get pre (b + 1)
    and a = Array.unsafe_get pre (b + 2)
    and d0 = Array.unsafe_get pre (b + 3)
    and t0 = Array.unsafe_get pre (b + 4) in
    let qi = Array.unsafe_get q i in
    let is_rev = Array.unsafe_get rev i in
    let theta = if is_rev then t0 +. qi else t0 in
    let d = if is_rev then d0 else d0 +. qi in
    let ct = cos theta and st = sin theta in
    (* DH matrix entries that feed more than one row (same products, same
       order as [Dh.transform_into] builds them) *)
    let m01 = -.st *. ca
    and m02 = st *. sa
    and m03 = a *. ct
    and m11 = ct *. ca
    and m12 = -.ct *. sa
    and m13 = a *. st in
    let acc = scratch.acc and dst = scratch.tmp in
    for row = 0 to 2 do
      let base = row * 4 in
      let a0 = Array.unsafe_get acc base
      and a1 = Array.unsafe_get acc (base + 1)
      and a2 = Array.unsafe_get acc (base + 2)
      and a3 = Array.unsafe_get acc (base + 3) in
      Array.unsafe_set dst base ((a0 *. ct) +. (a1 *. st));
      Array.unsafe_set dst (base + 1) ((a0 *. m01) +. (a1 *. m11) +. (a2 *. sa));
      Array.unsafe_set dst (base + 2) ((a0 *. m02) +. (a1 *. m12) +. (a2 *. ca));
      Array.unsafe_set dst (base + 3)
        ((a0 *. m03) +. (a1 *. m13) +. (a2 *. d) +. a3)
    done;
    dst.(12) <- 0.;
    dst.(13) <- 0.;
    dst.(14) <- 0.;
    dst.(15) <- 1.;
    let swap = scratch.acc in
    scratch.acc <- scratch.tmp;
    scratch.tmp <- swap
  done;
  Mat4.mul_affine_into ~dst:scratch.tmp scratch.acc (Chain.tool chain);
  let swap = scratch.acc in
  scratch.acc <- scratch.tmp;
  scratch.tmp <- swap

let end_transform scratch = scratch.acc

let position_into ~scratch ~dst chain q =
  if Array.length dst <> 3 then invalid_arg "Fk.position_into: dst not length 3";
  run ~scratch chain q;
  let m = scratch.acc in
  dst.(0) <- m.(3);
  dst.(1) <- m.(7);
  dst.(2) <- m.(11)

(* Without an explicit scratch a fresh one is allocated: a shared global
   default would race under domain-parallel solving (Batch, Quick_ik's
   Parallel mode). *)
let position ?scratch chain q =
  let scratch = match scratch with Some s -> s | None -> make_scratch () in
  run ~scratch chain q;
  Mat4.position scratch.acc

let pose chain q =
  let scratch = make_scratch () in
  run ~scratch chain q;
  Mat4.copy scratch.acc

(* Writes link [i]'s DH transform at joint value [q.(i)] into
   [scratch.local] from the compiled table: the entries and products of
   [Dh.transform_at], without its per-call [cos α]/[sin α]. *)
let local_into scratch i q =
  let pre = scratch.pre and m = scratch.local in
  let b = 5 * i in
  let ca = pre.(b) and sa = pre.(b + 1) and a = pre.(b + 2) in
  let qi = q.(i) in
  let theta, d =
    if scratch.revolute.(i) then (pre.(b + 4) +. qi, pre.(b + 3))
    else (pre.(b + 4), pre.(b + 3) +. qi)
  in
  let ct = cos theta and st = sin theta in
  m.(0) <- ct;
  m.(1) <- -.st *. ca;
  m.(2) <- st *. sa;
  m.(3) <- a *. ct;
  m.(4) <- st;
  m.(5) <- ct *. ca;
  m.(6) <- -.ct *. sa;
  m.(7) <- a *. st;
  m.(8) <- 0.;
  m.(9) <- sa;
  m.(10) <- ca;
  m.(11) <- d;
  m.(12) <- 0.;
  m.(13) <- 0.;
  m.(14) <- 0.;
  m.(15) <- 1.

let frames_into ~scratch ~dst chain q =
  Chain.check_config chain q;
  let n = Chain.dof chain in
  if Array.length dst < n + 1 then invalid_arg "Fk.frames_into: dst too short";
  ensure_compiled scratch chain;
  Mat4.blit (Chain.base chain) dst.(0);
  for i = 0 to n - 2 do
    local_into scratch i q;
    Mat4.mul_affine_into ~dst:dst.(i + 1) dst.(i) scratch.local
  done;
  (* Last slot folds the tool in, so the final product detours through the
     ping-pong buffer rather than aliasing dst.(n) as source and target. *)
  local_into scratch (n - 1) q;
  Mat4.mul_affine_into ~dst:scratch.tmp dst.(n - 1) scratch.local;
  Mat4.mul_affine_into ~dst:dst.(n) scratch.tmp (Chain.tool chain)

(* Exact-size check (not >=): Jacobian builders take the frame count from
   the array length, so a buffer left over from a larger chain would lie. *)
let ensure_frames scratch n =
  if Array.length scratch.frames_buf <> n + 1 then
    scratch.frames_buf <- Array.init (n + 1) (fun _ -> Array.make 16 0.);
  scratch.frames_buf

let frames ?scratch chain q =
  let n = Chain.dof chain in
  match scratch with
  | Some s ->
    let dst = ensure_frames s n in
    frames_into ~scratch:s ~dst chain q;
    dst
  | None ->
    let s = make_scratch () in
    let dst = Array.init (n + 1) (fun _ -> Array.make 16 0.) in
    frames_into ~scratch:s ~dst chain q;
    dst

(* ---- link-major multi-candidate position kernel -----------------------

   The speculative search only consumes each candidate's end-effector
   *position* (Algorithm 1 line 16), so evaluating candidates with the full
   pose product wastes over half the arithmetic and re-streams the compiled
   link constants once per candidate.  These kernels invert the loop nest:
   positions are folded tool→base as [p ← R·p + t] (the translation column
   of the DH product, built by right-association), so the outer loop walks
   the links exactly once, holds each link's five compiled constants in
   registers, and the inner loop streams the candidate positions through
   three contiguous planes of a flat SoA buffer ([x] at [0, stride),
   [y] at [stride, 2·stride), [z] at [2·stride, 3·stride)).  Per candidate
   per link this costs one cos/sin pair + 15 flops against the pose fold's
   2 trig + 39, and the candidate configuration θ + α_k·Δθ is formed on
   the fly, so no per-candidate θ buffer exists at all.  The fold itself
   runs in C, one call per sweep (below); the tool seeding, the base
   transform and the fused err² stay here.

   Association order: the pose kernels fold left-to-right from the base;
   these fold right-to-left from the tool.  Results therefore differ from
   [run] by ordinary reassociation rounding — bounded (and documented) in
   the differential suite — not bitwise.  Candidate evaluations are
   mutually independent, so any partition of [0, count) into ranges
   produces bit-identical positions and errors per candidate, which is
   what makes chunked parallel evaluation equal to sequential. *)

let precompile scratch chain = ensure_compiled scratch chain

(* The per-link candidate fold runs in C (fk_stubs.c), one call per
   sweep: written in OCaml, its two [cos]/[sin] externals per
   candidate·link spill every live float register and cost more than the
   fold's 15 flops.  The C loop performs the same IEEE operations in the
   same order and calls the same libm functions, so positions are
   bit-identical to the OCaml fold it replaced (test_kinematics.ml keeps
   that fold as the reference and compares bit for bit).  The stubs read
   [pre] ([cos α; sin α; a; d; θ₀] per link), [revolute] and the float
   arrays unchecked and write [pos] only at candidates [lo, hi): every
   caller checks the bounds and compiles the scratch first. *)
external fold_links :
  float array ->
  bool array ->
  (int[@untagged]) ->
  float array ->
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "dadu_fk_fold_links_byte" "dadu_fk_fold_links"
[@@noalloc]

external fold_rows :
  float array ->
  bool array ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "dadu_fk_fold_rows_byte" "dadu_fk_fold_rows"
[@@noalloc]

(* Seeds candidates [lo, hi) with the tool translation, the start of the
   backward sweep. *)
let seed_tool chain ~pos ~stride ~lo ~hi =
  let tool = Chain.tool chain in
  let tx = Array.unsafe_get tool 3
  and ty = Array.unsafe_get tool 7
  and tz = Array.unsafe_get tool 11 in
  for k = lo to hi - 1 do
    Array.unsafe_set pos k tx;
    Array.unsafe_set pos (stride + k) ty;
    Array.unsafe_set pos ((2 * stride) + k) tz
  done

(* Shared backward sweep: seeds every candidate with the tool translation,
   then folds links n-1..0, candidate [k]'s joint values formed as
   α_k·Δθᵢ + θᵢ (the expression Quick_ik rebuilds the winner's θ with).
   [theta]/[dtheta]/[coeffs] are read-only; candidate state in [pos] is
   touched only inside [lo, hi), so concurrent sweeps over disjoint
   ranges of one buffer (sharing one *precompiled* scratch) do not
   race. *)
let sweep_links scratch chain ~theta ~dtheta ~coeffs ~pos ~stride ~lo ~hi =
  seed_tool chain ~pos ~stride ~lo ~hi;
  fold_links scratch.pre scratch.revolute (Chain.dof chain) theta dtheta
    coeffs pos stride lo hi

(* Row-plane variant of [sweep_links]: candidate [k]'s configuration is
   read directly from row [k] of a flat lane-major θ plane
   ([thetas.(k·tstride + i)], Megabatch layout) instead of being formed as
   θ + α_k·Δθ.  The per-link fold is the one [sweep_links] runs; only the
   joint-value load differs.  Reading θ instead of computing [(0·0) + θ]
   can flip the sign of a zero angle, which [sin] preserves — but every
   downstream consumer squares the coordinates (the fused err2 write), so
   scores and argmin winners are bit-identical to the degenerate
   [sweep_links] call with zero Δθ and zero coefficients. *)
let sweep_rows scratch chain ~thetas ~tstride ~pos ~stride ~lo ~hi =
  seed_tool chain ~pos ~stride ~lo ~hi;
  fold_rows scratch.pre scratch.revolute (Chain.dof chain) thetas tstride pos
    stride lo hi

let score_rows_into ~scratch ~pos ~err2 ~txs ~tys ~tzs chain ~thetas ~tstride
    ~stride ~lo ~hi =
  let n = Chain.dof chain in
  if tstride < n then
    invalid_arg "Fk.score_rows_into: tstride smaller than the chain dof";
  if lo < 0 || hi > stride then
    invalid_arg "Fk.score_rows_into: candidate range out of bounds";
  if hi > lo && Array.length thetas < ((hi - 1) * tstride) + n then
    invalid_arg "Fk.score_rows_into: theta plane shorter than the range";
  if Array.length pos < 3 * stride then
    invalid_arg "Fk.score_rows_into: pos shorter than 3*stride";
  if Array.length err2 < stride then
    invalid_arg "Fk.score_rows_into: err2 shorter than stride";
  if Array.length txs < hi || Array.length tys < hi || Array.length tzs < hi
  then invalid_arg "Fk.score_rows_into: target planes shorter than the range";
  ensure_compiled scratch chain;
  sweep_rows scratch chain ~thetas ~tstride ~pos ~stride ~lo ~hi;
  let base = Chain.base chain in
  let b0 = base.(0) and b1 = base.(1) and b2 = base.(2) and b3 = base.(3)
  and b4 = base.(4) and b5 = base.(5) and b6 = base.(6) and b7 = base.(7)
  and b8 = base.(8) and b9 = base.(9) and b10 = base.(10) and b11 = base.(11) in
  for k = lo to hi - 1 do
    let x = Array.unsafe_get pos k
    and y = Array.unsafe_get pos (stride + k)
    and z = Array.unsafe_get pos ((2 * stride) + k) in
    let fx = (b0 *. x) +. (b1 *. y) +. (b2 *. z) +. b3 in
    let fy = (b4 *. x) +. (b5 *. y) +. (b6 *. z) +. b7 in
    let fz = (b8 *. x) +. (b9 *. y) +. (b10 *. z) +. b11 in
    Array.unsafe_set pos k fx;
    Array.unsafe_set pos (stride + k) fy;
    Array.unsafe_set pos ((2 * stride) + k) fz;
    let dx = Array.unsafe_get txs k -. fx
    and dy = Array.unsafe_get tys k -. fy
    and dz = Array.unsafe_get tzs k -. fz in
    Array.unsafe_set err2 k (((dx *. dx) +. (dy *. dy)) +. (dz *. dz))
  done

let check_many_args name chain ~theta ~dtheta ~coeffs ~stride ~lo ~hi =
  let n = Chain.dof chain in
  if Array.length theta <> n then
    invalid_arg (name ^ ": theta does not match the chain dof");
  if Array.length dtheta <> n then
    invalid_arg (name ^ ": dtheta does not match the chain dof");
  if lo < 0 || hi > stride || Array.length coeffs < hi then
    invalid_arg (name ^ ": candidate range out of bounds")

let positions_many_into ~scratch ~dst chain ~theta ~dtheta ~coeffs ~count =
  if count <= 0 then
    invalid_arg "Fk.positions_many_into: count must be positive";
  check_many_args "Fk.positions_many_into" chain ~theta ~dtheta ~coeffs
    ~stride:count ~lo:0 ~hi:count;
  if Array.length dst < 3 * count then
    invalid_arg "Fk.positions_many_into: dst shorter than 3*count";
  ensure_compiled scratch chain;
  sweep_links scratch chain ~theta ~dtheta ~coeffs ~pos:dst ~stride:count
    ~lo:0 ~hi:count;
  let base = Chain.base chain in
  let b0 = base.(0) and b1 = base.(1) and b2 = base.(2) and b3 = base.(3)
  and b4 = base.(4) and b5 = base.(5) and b6 = base.(6) and b7 = base.(7)
  and b8 = base.(8) and b9 = base.(9) and b10 = base.(10) and b11 = base.(11) in
  for k = 0 to count - 1 do
    let x = Array.unsafe_get dst k
    and y = Array.unsafe_get dst (count + k)
    and z = Array.unsafe_get dst ((2 * count) + k) in
    Array.unsafe_set dst k ((b0 *. x) +. (b1 *. y) +. (b2 *. z) +. b3);
    Array.unsafe_set dst (count + k) ((b4 *. x) +. (b5 *. y) +. (b6 *. z) +. b7);
    Array.unsafe_set dst ((2 * count) + k)
      ((b8 *. x) +. (b9 *. y) +. (b10 *. z) +. b11)
  done

let speculate_range_into ~scratch ~pos ~err2 ~tx ~ty ~tz chain ~theta ~dtheta
    ~coeffs ~stride ~lo ~hi =
  check_many_args "Fk.speculate_range_into" chain ~theta ~dtheta ~coeffs
    ~stride ~lo ~hi;
  if Array.length pos < 3 * stride then
    invalid_arg "Fk.speculate_range_into: pos shorter than 3*stride";
  if Array.length err2 < stride then
    invalid_arg "Fk.speculate_range_into: err2 shorter than stride";
  ensure_compiled scratch chain;
  sweep_links scratch chain ~theta ~dtheta ~coeffs ~pos ~stride ~lo ~hi;
  let base = Chain.base chain in
  let b0 = base.(0) and b1 = base.(1) and b2 = base.(2) and b3 = base.(3)
  and b4 = base.(4) and b5 = base.(5) and b6 = base.(6) and b7 = base.(7)
  and b8 = base.(8) and b9 = base.(9) and b10 = base.(10) and b11 = base.(11) in
  for k = lo to hi - 1 do
    let x = Array.unsafe_get pos k
    and y = Array.unsafe_get pos (stride + k)
    and z = Array.unsafe_get pos ((2 * stride) + k) in
    let fx = (b0 *. x) +. (b1 *. y) +. (b2 *. z) +. b3 in
    let fy = (b4 *. x) +. (b5 *. y) +. (b6 *. z) +. b7 in
    let fz = (b8 *. x) +. (b9 *. y) +. (b10 *. z) +. b11 in
    Array.unsafe_set pos k fx;
    Array.unsafe_set pos (stride + k) fy;
    Array.unsafe_set pos ((2 * stride) + k) fz;
    let dx = tx -. fx and dy = ty -. fy and dz = tz -. fz in
    (* squared error straight out of the base fold: the argmin scan needs
       no per-candidate sqrt (sqrt is monotone) *)
    Array.unsafe_set err2 k (((dx *. dx) +. (dy *. dy)) +. (dz *. dz))
  done

(* One 4×4 matrix product is 64 multiplies + 48 adds = 112 flops; building
   a DH local transform costs 4 trigs + 2 multiplies, counted as 10.  The
   chain does [dof] products plus one for the tool.  Kept at full 4×4
   counting deliberately: it models the accelerator's FKU datapath, not the
   host's affine shortcut. *)
let flops_per_position dof = (dof + 1) * 112 + (dof * 10)
