(** Dense row-major m×n float matrices.

    Jacobians are [3×N] (or [6×N]) matrices of this type.  Storage is a
    single flat array; [get]/[set] do the index arithmetic, and hot kernels
    (e.g. {!mul}, {!mul_vec}) run over the flat buffer directly. *)

type t = { rows : int; cols : int; data : float array }

val create : int -> int -> t
(** Zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val of_arrays : float array array -> t
(** Rows must be non-empty and of equal length. *)

val copy : t -> t

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val dims : t -> int * int

val row : t -> int -> Vec.t
(** Fresh copy of a row. *)

val col : t -> int -> Vec.t
(** Fresh copy of a column. *)

val set_col : t -> int -> Vec.t -> unit

val transpose : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product; dimensions must agree. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [a·x]. *)

val mul_transpose_vec : t -> Vec.t -> Vec.t
(** [mul_transpose_vec a x] is [aᵀ·x] without materializing [aᵀ]. *)

val gram : t -> t
(** [gram a] is [a·aᵀ] (size rows×rows); the [JJᵀ] of Eq. 8. *)

val gemv_into : dst:Vec.t -> t -> Vec.t -> unit
(** [gemv_into ~dst a x] writes [a·x] into [dst] (length [rows]); the
    zero-allocation twin of {!mul_vec}, bit-identical results. *)

val gemv_t_into : dst:Vec.t -> t -> Vec.t -> unit
(** [gemv_t_into ~dst a x] writes [aᵀ·x] into [dst] (length [cols]);
    bit-identical to {!mul_transpose_vec}. *)

val gram_into : dst:t -> t -> unit
(** [gram_into ~dst a] writes [a·aᵀ] into [dst] (rows×rows); bit-identical
    to {!gram}. *)

val frobenius : t -> float

val max_abs : t -> float

val approx_equal : ?tol:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
