(** Singular value decomposition by one-sided Jacobi rotations.

    This is the substrate the paper's pseudoinverse baseline (KDL-style
    [J⁻¹-SVD]) stands on.  One-sided Jacobi orthogonalizes the columns of
    the input by plane rotations; it is simple, unconditionally stable for
    the small ranks IK needs ([J] is 3×N or 6×N), and — the property the
    paper leans on — inherently *serial* across sweeps, which is why the
    pseudoinverse method resists hardware parallelization. *)

type t = {
  u : Mat.t;  (** m×r, orthonormal columns for non-zero singular values *)
  sigma : Vec.t;  (** r singular values, descending, r = min(m,n) *)
  v : Mat.t;  (** n×r, orthonormal columns *)
  sweeps : int;  (** Jacobi sweeps until convergence (cost accounting) *)
}

val decompose : ?max_sweeps:int -> ?tol:float -> Mat.t -> t
(** [decompose a] computes the thin SVD [a = u·diag(sigma)·vᵀ].
    [max_sweeps] defaults to 60, [tol] to 1e-12 (relative column-pair
    orthogonality).  Works for any shape: if the input is wide, the
    transpose is decomposed and the factors swapped. *)

val reconstruct : t -> Mat.t
(** [u·diag(sigma)·vᵀ]; for testing. *)

val rank : ?rcond:float -> t -> int
(** Number of singular values above [rcond·σ_max] (default [rcond] =
    1e-12). *)

val apply_pinv : ?rcond:float -> t -> Vec.t -> Vec.t
(** [apply_pinv svd e] is [A⁺·e = V·Σ⁺·Uᵀ·e] without materializing [A⁺].
    Singular values below [rcond·σ_max] are treated as zero. *)

val pinv : ?rcond:float -> Mat.t -> Mat.t
(** Materialized Moore–Penrose pseudoinverse (n×m). *)
