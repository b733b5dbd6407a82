open Dadu_linalg
module Stats = Dadu_util.Stats
module Rng = Dadu_util.Rng

let singular_values chain q =
  let j = Jacobian.position_jacobian chain q in
  (Svd.decompose j).Svd.sigma

let manipulability chain q =
  let sigma = singular_values chain q in
  Array.fold_left (fun acc s -> acc *. s) 1. sigma

let condition_number chain q =
  let sigma = singular_values chain q in
  let n = Array.length sigma in
  if n = 0 then infinity
  else begin
    let smin = sigma.(n - 1) in
    if smin <= 0. then infinity else sigma.(0) /. smin
  end

let ellipsoid chain q =
  let j = Jacobian.position_jacobian chain q in
  let eig = Eigen.decompose (Mat.gram j) in
  List.init 3 (fun k ->
      let axis = Vec3.of_vec (Mat.col eig.Eigen.vectors k) in
      (axis, sqrt (Float.max 0. eig.Eigen.values.(k))))

type stats = {
  samples : int;
  reach_max : float;
  reach_p50 : float;
  extent_min : Vec3.t;
  extent_max : Vec3.t;
  manipulability : Stats.summary;
  condition : Stats.summary;
  singular_fraction : float;
}

let condition_cap = 1e6

let sample ?(samples = 1000) rng chain =
  if samples <= 0 then invalid_arg "Workspace.sample: samples must be positive";
  let distances = Array.make samples 0. in
  let manip = Array.make samples 0. in
  let cond = Array.make samples 0. in
  let singular = ref 0 in
  let lo = ref (Vec3.make infinity infinity infinity) in
  let hi = ref (Vec3.make neg_infinity neg_infinity neg_infinity) in
  for i = 0 to samples - 1 do
    let q = Target.random_config rng chain in
    let p = Fk.position chain q in
    distances.(i) <- Vec3.norm p;
    manip.(i) <- manipulability chain q;
    let c = condition_number chain q in
    if c > condition_cap then begin
      incr singular;
      cond.(i) <- condition_cap
    end
    else cond.(i) <- c;
    lo :=
      Vec3.make (Float.min !lo.Vec3.x p.Vec3.x) (Float.min !lo.Vec3.y p.Vec3.y)
        (Float.min !lo.Vec3.z p.Vec3.z);
    hi :=
      Vec3.make (Float.max !hi.Vec3.x p.Vec3.x) (Float.max !hi.Vec3.y p.Vec3.y)
        (Float.max !hi.Vec3.z p.Vec3.z)
  done;
  {
    samples;
    reach_max = Stats.max distances;
    reach_p50 = Stats.median distances;
    extent_min = !lo;
    extent_max = !hi;
    manipulability = Stats.summarize manip;
    condition = Stats.summarize cond;
    singular_fraction = float_of_int !singular /. float_of_int samples;
  }
