open Dadu_linalg
open Dadu_kinematics

type serial_out = {
  e : Vec3.t;
  err : float;
  dtheta_base : Vec.t;
  alpha_base : float;
}

(* All-float record: flat, so the pass can publish its scalars without
   boxing them across a call boundary. *)
type out_scalars = { mutable err : float; mutable alpha_base : float }

type scratch = {
  mutable acc : Mat4.t;
  mutable tmp : Mat4.t;
  local : Mat4.t;
  dtheta_base : Vec.t;
  e : Vec.t;
  jjte : Vec.t;
  col : Vec.t;
  out : out_scalars;
}

let make_scratch ~dof =
  if dof <= 0 then invalid_arg "Datapath.make_scratch: dof must be positive";
  {
    acc = Mat4.identity ();
    tmp = Mat4.identity ();
    local = Mat4.identity ();
    dtheta_base = Vec.create dof;
    e = Vec.create 3;
    jjte = Vec.create 3;
    col = Vec.create 3;
    out = { err = 0.; alpha_base = 0. };
  }

(* Fused pipeline: the accumulator [acc] is ¹Tᵢ₋₁ when joint i is
   processed (its z-axis and origin define column Jᵢ), then advances by
   ⁱ⁻¹Tᵢ in the same stage round.  Allocation-free: every float lives in
   an unboxed local or a scratch buffer, and the association order matches
   the historical Vec3 formulation bit for bit. *)
let serial_pass_into s chain ~theta ~end_transform ~target =
  Chain.check_config chain theta;
  let n = Chain.dof chain in
  if Vec.dim s.dtheta_base <> n then
    invalid_arg "Datapath.serial_pass_into: scratch dof mismatch";
  let px = end_transform.(3) and py = end_transform.(7) and pz = end_transform.(11) in
  let ex = target.Vec3.x -. px
  and ey = target.Vec3.y -. py
  and ez = target.Vec3.z -. pz in
  s.e.(0) <- ex;
  s.e.(1) <- ey;
  s.e.(2) <- ez;
  s.out.err <- sqrt (((ex *. ex) +. (ey *. ey)) +. (ez *. ez));
  s.jjte.(0) <- 0.;
  s.jjte.(1) <- 0.;
  s.jjte.(2) <- 0.;
  Mat4.blit (Chain.base chain) s.acc;
  for i = 0 to n - 1 do
    let { Chain.joint; dh; _ } = Chain.link chain i in
    let a = s.acc in
    let zx = a.(2) and zy = a.(6) and zz = a.(10) in
    (match joint.Joint.kind with
    | Joint.Revolute ->
      let dx = px -. a.(3) and dy = py -. a.(7) and dz = pz -. a.(11) in
      s.col.(0) <- (zy *. dz) -. (zz *. dy);
      s.col.(1) <- (zz *. dx) -. (zx *. dz);
      s.col.(2) <- (zx *. dy) -. (zy *. dx)
    | Joint.Prismatic ->
      s.col.(0) <- zx;
      s.col.(1) <- zy;
      s.col.(2) <- zz);
    let cx = s.col.(0) and cy = s.col.(1) and cz = s.col.(2) in
    let je = (cx *. ex) +. (cy *. ey) +. (cz *. ez) in
    s.dtheta_base.(i) <- je;
    s.jjte.(0) <- s.jjte.(0) +. (je *. cx);
    s.jjte.(1) <- s.jjte.(1) +. (je *. cy);
    s.jjte.(2) <- s.jjte.(2) +. (je *. cz);
    Dh.transform_at ~dst:s.local dh joint.Joint.kind theta i;
    Mat4.mul_affine_into ~dst:s.tmp s.acc s.local;
    let swap = s.acc in
    s.acc <- s.tmp;
    s.tmp <- swap
  done;
  let jx = s.jjte.(0) and jy = s.jjte.(1) and jz = s.jjte.(2) in
  let denom = (jx *. jx) +. (jy *. jy) +. (jz *. jz) in
  s.out.alpha_base <-
    (if denom < 1e-30 then 0.
     else ((ex *. jx) +. (ey *. jy) +. (ez *. jz)) /. denom)

let serial_pass chain ~theta ~end_transform ~target =
  let s = make_scratch ~dof:(Chain.dof chain) in
  serial_pass_into s chain ~theta ~end_transform ~target;
  {
    e = Vec3.make s.e.(0) s.e.(1) s.e.(2);
    err = s.out.err;
    dtheta_base = s.dtheta_base;
    alpha_base = s.out.alpha_base;
  }

let candidate_pass_into scratch chain theta =
  Fk.run ~scratch chain theta;
  Fk.end_transform scratch
