open Dadu_linalg
open Dadu_kinematics
module Rng = Dadu_util.Rng
module Pool = Dadu_util.Domain_pool
module Ws = Dadu_core.Workspace

type source = Theta0 | Session | Library | Zero | Perturbed

let source_name = function
  | Theta0 -> "theta0"
  | Session -> "session"
  | Library -> "library"
  | Zero -> "zero"
  | Perturbed -> "perturbed"

(* Every buffer the selection needs, grown on demand and reused across
   waves.  Candidates live as rows of one flat row-major θ plane (joint
   [i] of row [k] at [plane.(k·tstride + i)]) so a whole wave's
   candidates can be scored by chunked {!Fk.score_rows_into} sweeps; the
   per-row target planes ([txs]/[tys]/[tzs]) are what let one sweep span
   candidates belonging to different requests.  Steady state over one
   chain shape and one candidate count allocates only the result array. *)
type t = {
  fk : Fk.scratch;
  mutable tstride : int; (* row width the plane is currently shaped for *)
  mutable plane : Vec.t; (* capacity × tstride candidate rows, lane-major *)
  mutable txs : Vec.t; (* capacity: per-row target x *)
  mutable tys : Vec.t;
  mutable tzs : Vec.t;
  mutable pos : Vec.t; (* 3 × capacity SoA position planes *)
  mutable err2 : Vec.t; (* capacity *)
  mutable srcs : source array; (* capacity *)
  (* wave bookkeeping: per-row owner and per-request row ranges *)
  mutable row_req : int array; (* capacity: spec index owning each row *)
  mutable base_lo : int array; (* per spec: first base row *)
  mutable base_n : int array; (* per spec: base row count *)
  mutable pert_lo : int array; (* per spec: first perturbed row *)
  mutable best_base : int array; (* per spec: winning base row *)
}

let create () =
  {
    fk = Fk.make_scratch ();
    tstride = 0;
    plane = [||];
    txs = [||];
    tys = [||];
    tzs = [||];
    pos = [||];
    err2 = [||];
    srcs = [||];
    row_req = [||];
    base_lo = [||];
    base_n = [||];
    pert_lo = [||];
    best_base = [||];
  }

let ensure t ~tstride ~rows =
  let cap = Stdlib.max rows (Array.length t.err2) in
  if Array.length t.err2 < cap then begin
    t.txs <- Array.make cap 0.;
    t.tys <- Array.make cap 0.;
    t.tzs <- Array.make cap 0.;
    t.pos <- Array.make (3 * cap) 0.;
    t.err2 <- Array.make cap 0.;
    t.srcs <- Array.make cap Theta0;
    t.row_req <- Array.make cap 0
  end;
  if t.tstride <> tstride || Array.length t.plane < cap * tstride then begin
    t.tstride <- tstride;
    t.plane <- Array.make (cap * tstride) 0.
  end

let ensure_specs t n =
  if Array.length t.base_lo < n then begin
    t.base_lo <- Array.make n 0;
    t.base_n <- Array.make n 0;
    t.pert_lo <- Array.make n 0;
    t.best_base <- Array.make n 0
  end

(* open-coded Joint.clamp over one plane row: the cross-module float
   return would box on every element, and this loop sits on the
   allocation-free prepare path *)
let clamp_row chain (plane : Vec.t) ~off =
  let links = Chain.links chain in
  for i = 0 to Array.length links - 1 do
    let j = links.(i).Chain.joint in
    let q = plane.(off + i) in
    let q = if q < j.Joint.lower then j.Joint.lower else q in
    plane.(off + i) <- (if q > j.Joint.upper then j.Joint.upper else q)
  done

(* ---- wave-fused selection --------------------------------------------

   One scheduler wave's worth of requests selected together: all base
   candidates of all requests are packed into contiguous rows of the
   plane and scored in chunked sweeps (parallel across the pool when one
   is given), then per-request base argmins run serially, perturbed rows
   are assembled from each winner and scored the same way, and the final
   winners are committed serially in ordinal order.

   The winner does not depend on the pool or on the wave a request
   shares: rows are assembled by the same code in the same per-request
   order, rows are scored independently (so any chunking equals
   one-row-at-a-time scoring), and the split argmin (best base, then
   perturbed rows in order, strict <) is the full-range scan with its
   earliest-row tie-break.

   The sequential path allocates nothing but the result array: no
   closures, tuples or captured refs (pinned by the alloc suite). *)

type spec = {
  ordinal : int;
  chain : Chain.t;
  tx : float;
  ty : float;
  tz : float;
  theta0 : Vec.t;
  session_seed : Vec.t option;
  library : Posture_library.t option;
  library_index : int;
  candidates : int;
  scale : float;
  dst : Vec.t;
}

let usable dof = function Some v -> Array.length v = dof | None -> false

(* How many base rows spec [s] assembles: θ₀, then each usable source in
   priority order (session slot, library neighbour, zero posture) while
   the candidate budget lasts.  [assemble_base] fills exactly these rows,
   in that order. *)
let base_count (s : spec) =
  let dof = Chain.dof s.chain in
  let usable_sources =
    Bool.to_int (usable dof s.session_seed)
    + Bool.to_int (s.library <> None && s.library_index >= 0)
    + 1 (* zero *)
  in
  Stdlib.min s.candidates (1 + usable_sources)

(* Row [row] of spec [r] has just been written: clamp it and tag its
   provenance, owner and target. *)
let seal_row t (s : spec) r row src =
  clamp_row s.chain t.plane ~off:(row * t.tstride);
  t.srcs.(row) <- src;
  t.row_req.(row) <- r;
  t.txs.(row) <- s.tx;
  t.tys.(row) <- s.ty;
  t.tzs.(row) <- s.tz

let blit_row t (s : spec) r row src v =
  Array.blit v 0 t.plane (row * t.tstride) (Chain.dof s.chain);
  seal_row t s r row src

(* Non-speculative requests ([candidates = 1]) take their own θ₀,
   clamped and unscored. *)
let classic (s : spec) =
  Array.blit s.theta0 0 s.dst 0 (Chain.dof s.chain);
  clamp_row s.chain s.dst ~off:0

(* Fill spec [r]'s base rows [base_lo, base_lo + base_n) in the fixed
   priority order; the argmin's tie-break (strict <) therefore favours
   the earlier, higher-trust source.  The temporal warm start outranks
   the spatial ones: a trajectory's previous waypoint is almost always
   the closest known posture. *)
let assemble_base t (specs : spec array) r =
  let s = specs.(r) in
  if s.candidates = 1 then classic s
  else begin
    let dof = Chain.dof s.chain in
    let lo = t.base_lo.(r) in
    let hi = lo + t.base_n.(r) in
    blit_row t s r lo Theta0 s.theta0;
    let k = ref (lo + 1) in
    (match s.session_seed with
    | Some v when Array.length v = dof && !k < hi ->
      blit_row t s r !k Session v;
      incr k
    | Some _ | None -> ());
    (match s.library with
    | Some lib when s.library_index >= 0 && !k < hi ->
      Posture_library.blit_posture_into lib s.library_index t.plane
        ~pos:(!k * t.tstride);
      seal_row t s r !k Library;
      incr k
    | Some _ | None -> ());
    if !k < hi then begin
      Array.fill t.plane (!k * t.tstride) dof 0.;
      seal_row t s r !k Zero
    end
  end

(* The remaining slots: Gaussian jitter around the best-scoring base, each
   perturbation's noise a pure function of (request ordinal, slot). *)
let assemble_perturbed t (specs : spec array) r =
  let s = specs.(r) in
  if s.candidates > 1 then begin
    let dof = Chain.dof s.chain in
    let boff = t.best_base.(r) * t.tstride in
    for j = 0 to s.candidates - t.base_n.(r) - 1 do
      let row = t.pert_lo.(r) + j in
      let off = row * t.tstride in
      let rng = Rng.create (Hashtbl.hash (0x5eed, s.ordinal, j)) in
      for i = 0 to dof - 1 do
        t.plane.(off + i) <- t.plane.(boff + i) +. (s.scale *. Rng.gaussian rng)
      done;
      seal_row t s r row Perturbed
    done
  end

(* [f t specs r] for every spec, fanned out over [pool] when given.  [f]
   is a top-level function, so the sequential path builds no closure. *)
let for_each_spec t ?pool specs f =
  match pool with
  | None ->
    for r = 0 to Array.length specs - 1 do
      f t specs r
    done
  | Some pool -> Pool.parallel_for pool (Array.length specs) (fun r -> f t specs r)

(* Score rows [a, b), splitting the range into runs of rows that share a
   chain so each kernel call streams one compiled constant set.  Worker
   domains score through their domain-local workspace's FK scratch
   ([Fk.compile] mutates the scratch per chain, so a shared one would
   race); the sequential path reuses the selector's own scratch.  Scratch
   identity never affects the computed values. *)
let score_rows t (specs : spec array) a b ~local =
  let i = ref a in
  while !i < b do
    let chain = specs.(t.row_req.(!i)).chain in
    let j = ref (!i + 1) in
    while !j < b && specs.(t.row_req.(!j)).chain == chain do
      incr j
    done;
    let scratch =
      if local then (Ws.local ~dof:(Chain.dof chain)).Ws.fk else t.fk
    in
    Fk.score_rows_into ~scratch ~pos:t.pos ~err2:t.err2 ~txs:t.txs ~tys:t.tys
      ~tzs:t.tzs chain ~thetas:t.plane ~tstride:t.tstride
      ~stride:(Array.length t.err2) ~lo:!i ~hi:!j;
    i := !j
  done

(* Candidate rows are trig-heavy (2 trig + 15 flops per link per row), so
   a small grain load-balances mixed-DOF waves without drowning in task
   dispatch. *)
let sweep_grain = 4

let sweep_region t ?pool specs lo hi =
  if hi > lo then
    match pool with
    | None -> score_rows t specs lo hi ~local:false
    | Some pool ->
      Pool.parallel_for_chunks pool ~grain:sweep_grain (hi - lo)
        (fun a b -> score_rows t specs (lo + a) (lo + b) ~local:true)

let choose_wave t ?pool (specs : spec array) =
  (* On a machine with no available parallelism (one online core), pool
     dispatch can only add scheduling overhead — run the same sweeps
     sequentially.  Purely a scheduling decision: the computed bits are
     identical either way (pinned by the pool-vs-sequential tests). *)
  let pool =
    match pool with
    | Some p as pool
      when Pool.size p > 1 && Domain.recommended_domain_count () > 1 ->
      pool
    | Some _ | None -> None
  in
  let n = Array.length specs in
  let tstride = ref 1 and total = ref 0 in
  for r = 0 to n - 1 do
    let s = specs.(r) in
    let dof = Chain.dof s.chain in
    if s.candidates < 1 then
      invalid_arg "Seed_select.choose_wave: candidates must be at least 1";
    if Array.length s.theta0 <> dof then
      invalid_arg "Seed_select.choose_wave: theta0 length <> dof";
    if Array.length s.dst <> dof then
      invalid_arg "Seed_select.choose_wave: dst length <> dof";
    if s.candidates > 1 then begin
      tstride := Stdlib.max !tstride dof;
      total := !total + s.candidates
    end
  done;
  let out = Array.make n Theta0 in
  if !total = 0 then
    for r = 0 to n - 1 do
      classic specs.(r)
    done
  else begin
    ensure t ~tstride:!tstride ~rows:!total;
    ensure_specs t n;
    (* serial row allocation in ordinal order: base rows pack the region
       [0, nbase) so one chunked sweep covers every request's bases *)
    let next = ref 0 in
    for r = 0 to n - 1 do
      let s = specs.(r) in
      t.base_lo.(r) <- !next;
      t.base_n.(r) <- (if s.candidates > 1 then base_count s else 0);
      next := !next + t.base_n.(r)
    done;
    let nbase = !next in
    (* assembly: disjoint row ranges, frozen inputs only *)
    for_each_spec t ?pool specs assemble_base;
    sweep_region t ?pool specs 0 nbase;
    (* serial base argmins + perturbed row allocation, ordinal order *)
    for r = 0 to n - 1 do
      let s = specs.(r) in
      if s.candidates > 1 then begin
        let lo = t.base_lo.(r) in
        let best = ref lo in
        for k = lo + 1 to lo + t.base_n.(r) - 1 do
          if t.err2.(k) < t.err2.(!best) then best := k
        done;
        t.best_base.(r) <- !best;
        t.pert_lo.(r) <- !next;
        next := !next + (s.candidates - t.base_n.(r))
      end
    done;
    if !next > nbase then begin
      for_each_spec t ?pool specs assemble_perturbed;
      sweep_region t ?pool specs nbase !next
    end;
    (* serial seal: final argmin per request (best base, then that
       request's perturbed rows in slot order, strict <) and winner
       blit, in ordinal order *)
    for r = 0 to n - 1 do
      let s = specs.(r) in
      if s.candidates > 1 then begin
        let best = ref t.best_base.(r) in
        let plo = t.pert_lo.(r) in
        for k = plo to plo + (s.candidates - t.base_n.(r)) - 1 do
          if t.err2.(k) < t.err2.(!best) then best := k
        done;
        Array.blit t.plane (!best * t.tstride) s.dst 0 (Chain.dof s.chain);
        out.(r) <- t.srcs.(!best)
      end
    done
  end;
  out
