(** 4×4 homogeneous transformation matrices.

    These are the [ⁱ⁻¹Tᵢ] of the paper (Eq. 10): the unit of work of the
    accelerator's Forward Kinematics Unit.  Row-major flat storage; the
    bottom row is kept explicitly so a [Mat4.t] is exactly what the FKU's
    4×4 multiplier consumes. *)

type t = float array
(** Length-16 row-major array.  Treated as immutable unless the function is
    suffixed [_into]. *)

val identity : unit -> t

val copy : t -> t

val blit : t -> t -> unit
(** [blit src dst] copies all 16 entries; no allocation. *)

val identity_into : t -> unit

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val mul : t -> t -> t
(** [mul a b] composes transforms ([a] then applies to [b]-frame points). *)

val mul_into : dst:t -> t -> t -> unit
(** [mul_into ~dst a b] writes [a·b] into [dst].  [dst] must not alias [a]
    or [b]. *)

val mul_affine_into : dst:t -> t -> t -> unit
(** Like {!mul_into} but assumes both operands are affine (bottom row
    [0 0 0 1]) and forces [dst]'s bottom row to exactly that.  This is the
    FK hot-loop kernel: 36 multiplies instead of 64.  Results are identical
    to {!mul_into} up to the sign of zero terms (≤ 1 ulp). *)

val is_affine : t -> bool
(** Bottom row is exactly [0 0 0 1]; the precondition of
    {!mul_affine_into}. *)

val transform_point : t -> Vec3.t -> Vec3.t
(** Applies rotation and translation. *)

val transform_dir : t -> Vec3.t -> Vec3.t
(** Applies rotation only. *)

val position : t -> Vec3.t
(** Translation column ([.P] in the paper's notation). *)

val x_axis : t -> Vec3.t
val z_axis : t -> Vec3.t
(** Rotation columns; [z_axis] is the joint axis used by the geometric
    Jacobian. *)

val translation : Vec3.t -> t

val rot_x : float -> t
val rot_y : float -> t
val rot_z : float -> t

val of_rot_trans : Rot.t -> Vec3.t -> t

val rotation : t -> Rot.t
(** Upper-left 3×3 block. *)

val inverse_rigid : t -> t
(** Inverse assuming the transform is rigid (orthonormal rotation):
    [R⁻¹ = Rᵀ], [p⁻¹ = −Rᵀp]. *)

val approx_equal : ?tol:float -> t -> t -> bool

val is_rigid : ?tol:float -> t -> bool
(** Checks the rotation block is orthonormal, the bottom row is
    [0 0 0 1]. *)

val pp : Format.formatter -> t -> unit
