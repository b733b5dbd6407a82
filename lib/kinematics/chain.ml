open Dadu_linalg

type link = { name : string; joint : Joint.t; dh : Dh.t }

type t = {
  chain_name : string;
  links : link array;
  base : Mat4.t;
  tool : Mat4.t;
  fingerprint : int; (* computed once by [make]; a chain is never mutated *)
}

(* FNV-1a over the raw IEEE-754 bits of everything that affects kinematics:
   DH parameters, joint kind and limits, base and tool transforms.  The name
   is deliberately excluded — two chains with identical geometry are the same
   robot for seeding purposes, whatever they are called.

   The hash is defined over 64-bit words but only its low 62 bits are kept,
   and each FNV step (xor a byte, multiply by the prime) commutes with
   reduction mod 2^63.  So it is folded in native ints, with no boxed
   [Int64] per byte, and equals the 64-bit fold that journals and posture
   library files store. *)
let fnv_prime = 0x100000001b3

let fnv_basis = Int64.to_int 0xcbf29ce484222325L

(* the 8 little-endian bytes of a non-negative int *)
let mix_int h i =
  let h = ref h in
  for shift = 0 to 7 do
    h := (!h lxor ((i lsr (shift * 8)) land 0xff)) * fnv_prime
  done;
  !h

let mix_float h x =
  let bits = Int64.bits_of_float x in
  let h = ref h in
  for shift = 0 to 7 do
    let byte = Int64.to_int (Int64.shift_right_logical bits (shift * 8)) land 0xff in
    h := (!h lxor byte) * fnv_prime
  done;
  !h

let fingerprint_of ~links ~base ~tool =
  let h = ref (mix_int fnv_basis (Array.length links)) in
  Array.iter
    (fun { joint; dh; _ } ->
      h := mix_int !h (match joint.Joint.kind with Joint.Revolute -> 1 | Joint.Prismatic -> 2);
      h := mix_float !h joint.Joint.lower;
      h := mix_float !h joint.Joint.upper;
      h := mix_float !h dh.Dh.a;
      h := mix_float !h dh.Dh.alpha;
      h := mix_float !h dh.Dh.d;
      h := mix_float !h dh.Dh.theta)
    links;
  let h = Array.fold_left mix_float !h base in
  Array.fold_left mix_float h tool land max_int

(* The FK kernels compose with the affine fast path (Mat4.mul_affine_into),
   which is only valid when every factor has bottom row [0 0 0 1].  DH link
   transforms have it by construction; base and tool are user input, so
   enforce it here once instead of per multiply. *)
let check_affine what m =
  if Array.length m <> 16 then
    invalid_arg (Printf.sprintf "Chain.make: %s is not a 4x4 matrix" what);
  if not (Mat4.is_affine m) then
    invalid_arg
      (Printf.sprintf "Chain.make: %s must be affine (bottom row [0 0 0 1])" what)

let make ?(name = "chain") ?base ?tool links =
  if Array.length links = 0 then invalid_arg "Chain.make: no links";
  let base = match base with Some b -> check_affine "base" b; Mat4.copy b | None -> Mat4.identity () in
  let tool = match tool with Some t -> check_affine "tool" t; Mat4.copy t | None -> Mat4.identity () in
  let links = Array.copy links in
  { chain_name = name; links; base; tool; fingerprint = fingerprint_of ~links ~base ~tool }

let name t = t.chain_name

let dof t = Array.length t.links

let links t = t.links

let link t i = t.links.(i)

let base t = t.base

let tool t = t.tool

let fingerprint t = t.fingerprint

let reach t =
  Array.fold_left
    (fun acc { joint; dh; _ } ->
      let travel =
        match joint.Joint.kind with
        | Joint.Revolute -> 0.
        | Joint.Prismatic ->
          if Joint.unbounded joint then infinity
          else Float.max (Float.abs joint.Joint.lower) (Float.abs joint.Joint.upper)
      in
      acc +. Float.abs dh.Dh.a +. Float.abs dh.Dh.d +. travel)
    0. t.links

let check_config t q =
  if Array.length q <> dof t then
    invalid_arg
      (Printf.sprintf "Chain %s: config has %d entries, expected %d" t.chain_name
         (Array.length q) (dof t))

let clamp_config t q =
  check_config t q;
  Array.mapi (fun i qi -> Joint.clamp t.links.(i).joint qi) q

let config_inside t q =
  check_config t q;
  let rec loop i =
    i >= dof t || (Joint.inside t.links.(i).joint q.(i) && loop (i + 1))
  in
  loop 0

let pp ppf t =
  Format.fprintf ppf "@[<v>chain %s (%d DOF)" t.chain_name (dof t);
  Array.iter
    (fun { name; joint; dh } ->
      Format.fprintf ppf "@,  %s: %a %a" name Joint.pp joint Dh.pp dh)
    t.links;
  Format.fprintf ppf "@]"
