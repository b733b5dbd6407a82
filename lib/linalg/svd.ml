type t = { u : Mat.t; sigma : Vec.t; v : Mat.t; sweeps : int }

(* One-sided Jacobi on a tall (m >= n) matrix held as n column vectors of
   length m.  Each rotation orthogonalizes one column pair and accumulates
   the same rotation into v. *)
let jacobi_tall ~max_sweeps ~tol ~m ~n (cols : float array array) =
  let v = Array.init n (fun j -> Array.init n (fun i -> if i = j then 1. else 0.)) in
  let rotate p q c s =
    let cp = cols.(p) and cq = cols.(q) in
    for i = 0 to m - 1 do
      let xp = cp.(i) and xq = cq.(i) in
      cp.(i) <- (c *. xp) -. (s *. xq);
      cq.(i) <- (s *. xp) +. (c *. xq)
    done;
    let vp = v.(p) and vq = v.(q) in
    for i = 0 to n - 1 do
      let xp = vp.(i) and xq = vq.(i) in
      vp.(i) <- (c *. xp) -. (s *. xq);
      vq.(i) <- (s *. xp) +. (c *. xq)
    done
  in
  let col_dot a b =
    let acc = ref 0. in
    for i = 0 to m - 1 do
      acc := !acc +. (a.(i) *. b.(i))
    done;
    !acc
  in
  let sweeps = ref 0 in
  let converged = ref false in
  while (not !converged) && !sweeps < max_sweeps do
    incr sweeps;
    converged := true;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let alpha = col_dot cols.(p) cols.(p) in
        let beta = col_dot cols.(q) cols.(q) in
        let gamma = col_dot cols.(p) cols.(q) in
        if Float.abs gamma > tol *. sqrt (alpha *. beta) && gamma <> 0. then begin
          converged := false;
          let zeta = (beta -. alpha) /. (2. *. gamma) in
          let t =
            Float.copy_sign 1. zeta /. (Float.abs zeta +. sqrt (1. +. (zeta *. zeta)))
          in
          let c = 1. /. sqrt (1. +. (t *. t)) in
          let s = c *. t in
          rotate p q c s
        end
      done
    done
  done;
  (v, !sweeps)

let decompose_tall ~max_sweeps ~tol (a : Mat.t) =
  let m, n = Mat.dims a in
  assert (m >= n);
  let cols = Array.init n (fun j -> Mat.col a j) in
  let v_cols, sweeps = jacobi_tall ~max_sweeps ~tol ~m ~n cols in
  let sigma = Array.init n (fun j -> Vec.norm cols.(j)) in
  (* Sort singular values descending, permuting u/v columns alongside. *)
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare sigma.(j) sigma.(i)) order;
  let u = Mat.create m n in
  let v = Mat.create n n in
  Array.iteri
    (fun dst src ->
      let s = sigma.(src) in
      if s > 0. then
        for i = 0 to m - 1 do
          Mat.set u i dst (cols.(src).(i) /. s)
        done;
      for i = 0 to n - 1 do
        Mat.set v i dst v_cols.(src).(i)
      done)
    order;
  let sigma_sorted = Array.map (fun i -> sigma.(i)) order in
  { u; sigma = sigma_sorted; v; sweeps }

let decompose ?(max_sweeps = 60) ?(tol = 1e-12) a =
  let m, n = Mat.dims a in
  if m >= n then decompose_tall ~max_sweeps ~tol a
  else begin
    let t = decompose_tall ~max_sweeps ~tol (Mat.transpose a) in
    { t with u = t.v; v = t.u }
  end

let reconstruct { u; sigma; v; _ } =
  let m, r = Mat.dims u in
  let n, _ = Mat.dims v in
  Mat.init m n (fun i j ->
      let acc = ref 0. in
      for k = 0 to r - 1 do
        acc := !acc +. (Mat.get u i k *. sigma.(k) *. Mat.get v j k)
      done;
      !acc)

let rank ?(rcond = 1e-12) t =
  if Array.length t.sigma = 0 then 0
  else begin
    let cutoff = rcond *. t.sigma.(0) in
    Array.fold_left (fun acc s -> if s > cutoff then acc + 1 else acc) 0 t.sigma
  end

(* y = V · diag(g σ) · Uᵀ · e for a per-singular-value gain function. *)
let apply_gains t gains e =
  let ut_e = Mat.mul_transpose_vec t.u e in
  let r = Array.length t.sigma in
  let scaled = Array.init r (fun k -> gains.(k) *. ut_e.(k)) in
  Mat.mul_vec t.v scaled

let apply_pinv ?(rcond = 1e-12) t e =
  let smax = if Array.length t.sigma = 0 then 0. else t.sigma.(0) in
  let cutoff = rcond *. smax in
  let gains = Array.map (fun s -> if s > cutoff then 1. /. s else 0.) t.sigma in
  apply_gains t gains e

let pinv ?rcond a =
  let t = decompose a in
  let m, _ = Mat.dims a in
  let n = (Mat.dims t.v |> fst) in
  let result = Mat.create n m in
  (* Column j of A⁺ is A⁺·e_j. *)
  for j = 0 to m - 1 do
    let e = Array.init m (fun i -> if i = j then 1. else 0.) in
    let cj = apply_pinv ?rcond t e in
    Mat.set_col result j cj
  done;
  result
