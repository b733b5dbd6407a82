open Dadu_linalg
open Dadu_kinematics

(* All-float record: stays flat, so field writes never allocate.  Hot
   scalars the iteration driver and solver steps exchange live here
   instead of crossing call boundaries as (boxed) float arguments. *)
type scalars = { mutable err : float; mutable best_err : float }

type t = {
  dof : int;
  fk : Fk.scratch;
  frames : Mat4.t array;
  jac : Mat.t;
  e : Vec.t;
  tmp3 : Vec.t;
  dtheta : Vec.t;
  mutable theta : Vec.t;
  mutable theta_next : Vec.t;
  a33 : Mat.t;
  l33 : Mat.t;
  y3 : Vec.t;
  scalars : scalars;
  mutable iter : int;
  mutable cand_pos : Vec.t;
  mutable cand_err2 : float array;
  mutable coeffs : float array;
  mutable ladder : float array;
  mutable ladder_for : int;
}

let create ~dof =
  if dof <= 0 then invalid_arg "Workspace.create: dof must be positive";
  {
    dof;
    fk = Fk.make_scratch ~dof ();
    frames = Array.init (dof + 1) (fun _ -> Array.make 16 0.);
    jac = Mat.create 3 dof;
    e = Vec.create 3;
    tmp3 = Vec.create 3;
    dtheta = Vec.create dof;
    theta = Vec.create dof;
    theta_next = Vec.create dof;
    a33 = Mat.create 3 3;
    l33 = Mat.create 3 3;
    y3 = Vec.create 3;
    scalars = { err = infinity; best_err = infinity };
    iter = 0;
    cand_pos = [||];
    cand_err2 = [||];
    coeffs = [||];
    ladder = [||];
    ladder_for = 0;
  }

let dof t = t.dof

(* Speculative solvers grow the candidate pools on first use and keep them
   across iterations (and across solves when the workspace is reused).
   The pools grow together, so [Array.length cand_err2] is the SoA plane
   stride of [cand_pos] even when a reused workspace is wider than the
   current speculation count. *)
let ensure_candidates t n =
  if Array.length t.cand_err2 < n then begin
    t.cand_pos <- Array.make (3 * n) 0.;
    t.cand_err2 <- Array.make n infinity;
    t.coeffs <- Array.make n 0.
  end

(* One workspace per (domain, dof): solver fan-out via Domain_pool runs one
   solve at a time per domain, so reusing the cached workspace is safe as
   long as solves do not nest within a domain. *)
let pool_key : (int, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

(* Process-global accounting across every domain's cache.  Observability
   only; int Atomics, so bumping them in [local] stays allocation-free. *)
let n_created = Atomic.make 0
let n_reused = Atomic.make 0

type pool_stats = { created : int; reused : int }

let local_stats () =
  { created = Atomic.get n_created; reused = Atomic.get n_reused }

let local_count () = Hashtbl.length (Domain.DLS.get pool_key)

let local ~dof =
  let tbl = Domain.DLS.get pool_key in
  match Hashtbl.find_opt tbl dof with
  | Some ws ->
    Atomic.incr n_reused;
    ws
  | None ->
    let ws = create ~dof in
    Hashtbl.add tbl dof ws;
    Atomic.incr n_created;
    ws
