(** Forward Kinematics Unit cycle model (Figure 2, right).

    The FKU walks the chain [f(θ) = ∏ ⁱ⁻¹Tᵢ] with one 4×4-matmul logic
    block: while the multiplier consumes [ⁱ⁻¹Tᵢ], the transform generator
    computes [ⁱTᵢ₊₁], so successive joints overlap at the slower of the two
    latencies. *)

val chain_cycles : Config.t -> dof:int -> int
(** Cycles for one full FK evaluation of a [dof]-joint chain. *)
