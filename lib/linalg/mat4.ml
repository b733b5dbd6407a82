type t = float array

let identity () =
  [| 1.; 0.; 0.; 0.; 0.; 1.; 0.; 0.; 0.; 0.; 1.; 0.; 0.; 0.; 0.; 1. |]

let copy = Array.copy

let blit src dst = Array.blit src 0 dst 0 16

let identity_into dst =
  Array.fill dst 0 16 0.;
  dst.(0) <- 1.;
  dst.(5) <- 1.;
  dst.(10) <- 1.;
  dst.(15) <- 1.

let get t i j = t.((i * 4) + j)

let set t i j x = t.((i * 4) + j) <- x

(* The multiply kernels run with unchecked indexing: they are the FKU inner
   loop and the bounds are pinned by the explicit length guard. *)
let check16 name m = if Array.length m <> 16 then invalid_arg (name ^ ": not a 4x4")

let mul_into ~dst a b =
  assert (dst != a && dst != b);
  check16 "Mat4.mul_into" dst;
  check16 "Mat4.mul_into" a;
  check16 "Mat4.mul_into" b;
  for i = 0 to 3 do
    let base = i * 4 in
    for j = 0 to 3 do
      Array.unsafe_set dst (base + j)
        ((Array.unsafe_get a base *. Array.unsafe_get b j)
        +. (Array.unsafe_get a (base + 1) *. Array.unsafe_get b (4 + j))
        +. (Array.unsafe_get a (base + 2) *. Array.unsafe_get b (8 + j))
        +. (Array.unsafe_get a (base + 3) *. Array.unsafe_get b (12 + j)))
    done
  done

let mul a b =
  let dst = Array.make 16 0. in
  mul_into ~dst a b;
  dst

(* Affine fast path: both operands must have bottom row [0 0 0 1], which
   holds for every rigid/DH transform in a chain.  Skipping the known-zero
   products is what takes one 4x4 composition from 64 to 36 multiplies; the
   surviving terms are summed in the same order as {!mul_into}, so results
   differ from the general kernel by at most the sign of a zero. *)
let mul_affine_into ~dst a b =
  assert (dst != a && dst != b);
  check16 "Mat4.mul_affine_into" dst;
  check16 "Mat4.mul_affine_into" a;
  check16 "Mat4.mul_affine_into" b;
  for i = 0 to 2 do
    let base = i * 4 in
    let a0 = Array.unsafe_get a base
    and a1 = Array.unsafe_get a (base + 1)
    and a2 = Array.unsafe_get a (base + 2) in
    Array.unsafe_set dst base
      ((a0 *. Array.unsafe_get b 0)
      +. (a1 *. Array.unsafe_get b 4)
      +. (a2 *. Array.unsafe_get b 8));
    Array.unsafe_set dst (base + 1)
      ((a0 *. Array.unsafe_get b 1)
      +. (a1 *. Array.unsafe_get b 5)
      +. (a2 *. Array.unsafe_get b 9));
    Array.unsafe_set dst (base + 2)
      ((a0 *. Array.unsafe_get b 2)
      +. (a1 *. Array.unsafe_get b 6)
      +. (a2 *. Array.unsafe_get b 10));
    Array.unsafe_set dst (base + 3)
      ((a0 *. Array.unsafe_get b 3)
      +. (a1 *. Array.unsafe_get b 7)
      +. (a2 *. Array.unsafe_get b 11)
      +. Array.unsafe_get a (base + 3))
  done;
  dst.(12) <- 0.;
  dst.(13) <- 0.;
  dst.(14) <- 0.;
  dst.(15) <- 1.

let is_affine t =
  t.(12) = 0. && t.(13) = 0. && t.(14) = 0. && t.(15) = 1.

let transform_point t (v : Vec3.t) =
  Vec3.make
    ((t.(0) *. v.x) +. (t.(1) *. v.y) +. (t.(2) *. v.z) +. t.(3))
    ((t.(4) *. v.x) +. (t.(5) *. v.y) +. (t.(6) *. v.z) +. t.(7))
    ((t.(8) *. v.x) +. (t.(9) *. v.y) +. (t.(10) *. v.z) +. t.(11))

let transform_dir t (v : Vec3.t) =
  Vec3.make
    ((t.(0) *. v.x) +. (t.(1) *. v.y) +. (t.(2) *. v.z))
    ((t.(4) *. v.x) +. (t.(5) *. v.y) +. (t.(6) *. v.z))
    ((t.(8) *. v.x) +. (t.(9) *. v.y) +. (t.(10) *. v.z))

let position t = Vec3.make t.(3) t.(7) t.(11)

let x_axis t = Vec3.make t.(0) t.(4) t.(8)
let z_axis t = Vec3.make t.(2) t.(6) t.(10)

let translation (v : Vec3.t) =
  [| 1.; 0.; 0.; v.x; 0.; 1.; 0.; v.y; 0.; 0.; 1.; v.z; 0.; 0.; 0.; 1. |]

let of_rot_trans (r : Rot.t) (p : Vec3.t) =
  [|
    r.(0); r.(1); r.(2); p.x;
    r.(3); r.(4); r.(5); p.y;
    r.(6); r.(7); r.(8); p.z;
    0.; 0.; 0.; 1.;
  |]
[@@ocamlformat "disable"]

let rot_x a = of_rot_trans (Rot.rot_x a) Vec3.zero
let rot_y a = of_rot_trans (Rot.rot_y a) Vec3.zero
let rot_z a = of_rot_trans (Rot.rot_z a) Vec3.zero

let rotation t =
  [| t.(0); t.(1); t.(2); t.(4); t.(5); t.(6); t.(8); t.(9); t.(10) |]

let inverse_rigid t =
  let r = rotation t in
  let rt = Rot.transpose r in
  let p = position t in
  let p' = Vec3.neg (Rot.apply rt p) in
  of_rot_trans rt p'

let approx_equal ?(tol = 1e-9) a b =
  let rec loop k = k >= 16 || (Float.abs (a.(k) -. b.(k)) <= tol && loop (k + 1)) in
  loop 0

let is_rigid ?(tol = 1e-9) t =
  Rot.is_orthonormal ~tol (rotation t)
  && Float.abs t.(12) <= tol
  && Float.abs t.(13) <= tol
  && Float.abs t.(14) <= tol
  && Float.abs (t.(15) -. 1.) <= tol

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to 3 do
    Format.fprintf ppf "[%8.4g, %8.4g, %8.4g, %8.4g]" (get t i 0) (get t i 1)
      (get t i 2) (get t i 3);
    if i < 3 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
