open Dadu_linalg
open Dadu_kinematics

(** The accelerator's functional datapaths, implemented exactly as the
    hardware computes them.

    {b Serial pass} (paper §5.3, Figure 3): the four loops of the original
    process flow are fused into one pipeline over the joints.  For joint
    [i] the pass computes [ⁱ⁻¹Tᵢ], extends the running product [¹Tᵢ],
    forms the Jacobian column [Jᵢ] from it, and folds [Jᵢ·(Jᵢ·e)] into the
    running [JJᵀe] accumulator (Eq. 11) — so neither the frame list nor
    the 3×N Jacobian is ever materialized, which is the point of the
    optimization.  The end-effector transform is {e not} recomputed: the
    hardware reuses [¹T_N] from the winning speculation of the previous
    iteration ("the ¹T_N.P is from the speculative search at the last
    iteration", §5.3).

    {b Candidate pass} (the FKU): the plain left-to-right chain product.

    Both paths perform the same float operations in the same order as the
    software solver, so the simulator built on them ({!Sim}) is
    bit-identical to {!Dadu_core.Quick_ik} — the tests assert it. *)

type serial_out = {
  e : Vec3.t;  (** position error [X_t − ¹T_N.P] *)
  err : float;  (** [‖e‖] *)
  dtheta_base : Vec.t;  (** [Jᵀe], accumulated column by column *)
  alpha_base : float;  (** Eq. 8, from the accumulated [JJᵀe] *)
}

type out_scalars = { mutable err : float; mutable alpha_base : float }
(** All-float (flat) output channel, so no scalar boxes on the way out. *)

type scratch = {
  mutable acc : Mat4.t;  (** running product ¹Tᵢ (ping-pong) *)
  mutable tmp : Mat4.t;  (** ping-pong partner *)
  local : Mat4.t;  (** per-joint DH transform *)
  dtheta_base : Vec.t;  (** [Jᵀe], accumulated column by column *)
  e : Vec.t;  (** length-3 position error *)
  jjte : Vec.t;  (** length-3 [JJᵀe] accumulator *)
  col : Vec.t;  (** length-3 current Jacobian column *)
  out : out_scalars;
}

val make_scratch : dof:int -> scratch

val serial_pass_into :
  scratch ->
  Chain.t ->
  theta:Vec.t ->
  end_transform:Mat4.t ->
  target:Vec3.t ->
  unit
(** Allocation-free serial pass: results land in the scratch's
    [dtheta_base], [e], and [out] fields.  [end_transform] must be the FK
    pose of [theta] (the previous winner's [¹T_N]); the pass reads only
    its position column, and does so before touching any buffer, so it may
    alias an FK scratch that is rewritten later in the iteration. *)

val serial_pass :
  Chain.t -> theta:Vec.t -> end_transform:Mat4.t -> target:Vec3.t -> serial_out
(** Convenience wrapper over {!serial_pass_into} with a fresh scratch. *)

val candidate_pass_into : Fk.scratch -> Chain.t -> Vec.t -> Mat4.t
(** Full FK transform of a speculative candidate (base, links, tool) —
    what one SSU's FKU produces and hands back for the next serial pass —
    computed in an FK scratch; the returned matrix is the scratch's
    accumulator (valid until its next run). *)
