module Ws = Workspace
open Dadu_linalg
open Dadu_kinematics

type strategy = Uniform | Log_spaced | Extended of float

let solve ?(speculations = 64) ?(strategy = Uniform) ?on_iteration ?workspace
    ?config (problem : Ik.problem) =
  if speculations <= 0 then invalid_arg "Quick_ik.solve: speculations must be positive";
  let { Ik.chain; target; _ } = problem in
  let dof = Chain.dof chain in
  let ws = match workspace with Some w -> w | None -> Ws.create ~dof in
  (* Candidate state lives in the workspace as flat SoA planes and is
     reused across iterations (and solves); no per-candidate θ vectors or
     FK scratches exist — the kernel forms θ + α_k·Δθ on the fly. *)
  Ws.ensure_candidates ws speculations;
  let cand_pos = ws.Ws.cand_pos in
  let cand_err2 = ws.Ws.cand_err2 in
  let coeffs = ws.Ws.coeffs in
  let stride = Array.length cand_err2 in
  (* Log_spaced hoist: the geometric ladder ratio^(Max-1-k) depends only on
     Max, so the per-candidate [**] of the historical closed form is paid
     once per (workspace, Max) pairing instead of once per candidate per
     iteration; the per-iteration work is one multiply per candidate.  The
     powers are kept in closed form (not a running product), so the
     coefficients match the historical ones bit for bit. *)
  (match strategy with
  | Log_spaced when speculations > 1 && ws.Ws.ladder_for <> speculations ->
    if Array.length ws.Ws.ladder < speculations then
      ws.Ws.ladder <- Array.make speculations 0.;
    let ladder = ws.Ws.ladder in
    let max = float_of_int speculations in
    let ratio = (1. /. max) ** (1. /. (max -. 1.)) in
    for k = 0 to speculations - 1 do
      ladder.(k) <- ratio ** (max -. float_of_int (k + 1))
    done;
    ws.Ws.ladder_for <- speculations
  | Uniform | Extended _ | Log_spaced -> ());
  let ladder = ws.Ws.ladder in
  let tx = target.Vec3.x and ty = target.Vec3.y and tz = target.Vec3.z in
  let step ws =
    Jacobian.position_jacobian_into ~dst:ws.Ws.jac chain ws.Ws.frames;
    Mat.gemv_t_into ~dst:ws.Ws.dtheta ws.Ws.jac ws.Ws.e;
    (* α_base (Eq. 8) inline, same association order as [Alpha.buss]. *)
    Mat.gemv_into ~dst:ws.Ws.tmp3 ws.Ws.jac ws.Ws.dtheta;
    let jx = ws.Ws.tmp3.(0) and jy = ws.Ws.tmp3.(1) and jz = ws.Ws.tmp3.(2) in
    let denom = (jx *. jx) +. (jy *. jy) +. (jz *. jz) in
    let alpha_base =
      if denom < 1e-30 then 0.
      else
        ((ws.Ws.e.(0) *. jx) +. (ws.Ws.e.(1) *. jy) +. (ws.Ws.e.(2) *. jz))
        /. denom
    in
    if alpha_base = 0. then begin
      Vec.blit ws.Ws.theta ws.Ws.theta_next;
      0
    end
    else begin
      (* The step-size ladder (Eq. 9), written into the coeffs buffer so
         no float crosses a call boundary.  Uniform: α_k = (k/Max)·α_base;
         Extended scales the interval; Log_spaced is a geometric ladder
         with the same endpoints (α_min = α_base/Max, α_max = α_base),
         read from the hoisted power table. *)
      let max = float_of_int speculations in
      (match strategy with
      | Uniform ->
        for k = 0 to speculations - 1 do
          coeffs.(k) <- float_of_int (k + 1) /. max *. alpha_base
        done
      | Extended factor ->
        for k = 0 to speculations - 1 do
          coeffs.(k) <- float_of_int (k + 1) /. max *. factor *. alpha_base
        done
      | Log_spaced ->
        if speculations = 1 then coeffs.(0) <- alpha_base
        else
          for k = 0 to speculations - 1 do
            coeffs.(k) <- alpha_base *. Array.unsafe_get ladder k
          done);
      (* Speculation and Algorithm 1 line 16 in one filtered sweep: the
         minimum error, ties toward smaller k — on squared errors, which
         order exactly as the distances do. *)
      let best =
        Fk.speculate_argmin ~scratch:ws.Ws.fk ~pos:cand_pos ~err2:cand_err2
          ~tx ~ty ~tz chain ~theta:ws.Ws.theta ~dtheta:ws.Ws.dtheta ~coeffs
          ~stride ~lo:0 ~hi:speculations
      in
      (* Rebuild the winner's configuration with the same expression the
         kernel used, bit-identical to the θ-candidate the pose path
         materialized. *)
      let alpha = coeffs.(best) in
      let th = ws.Ws.theta and dt = ws.Ws.dtheta and nx = ws.Ws.theta_next in
      for i = 0 to dof - 1 do
        Array.unsafe_set nx i
          ((alpha *. Array.unsafe_get dt i) +. Array.unsafe_get th i)
      done;
      0
    end
  in
  Loop.run ?config ?on_iteration ~workspace:ws ~speculations ~step problem
