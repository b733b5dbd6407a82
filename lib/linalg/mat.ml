type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0. }

let init rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Mat.init: negative dimension";
  let data = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Mat.of_arrays: empty";
  let cols = Array.length a.(0) in
  if cols = 0 then invalid_arg "Mat.of_arrays: empty row";
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows")
    a;
  init rows cols (fun i j -> a.(i).(j))

let copy m = { m with data = Array.copy m.data }

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.get: out of bounds";
  m.data.((i * m.cols) + j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.set: out of bounds";
  m.data.((i * m.cols) + j) <- x

let dims m = (m.rows, m.cols)

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Mat.row: out of bounds";
  Array.sub m.data (i * m.cols) m.cols

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Mat.col: out of bounds";
  Array.init m.rows (fun i -> m.data.((i * m.cols) + j))

let set_col m j v =
  if j < 0 || j >= m.cols then invalid_arg "Mat.set_col: out of bounds";
  if Array.length v <> m.rows then invalid_arg "Mat.set_col: dimension mismatch";
  for i = 0 to m.rows - 1 do
    m.data.((i * m.cols) + j) <- v.(i)
  done

let transpose m = init m.cols m.rows (fun i j -> m.data.((j * m.cols) + i))

let check_same_dims name a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg (name ^ ": dimension mismatch")

let add a b =
  check_same_dims "Mat.add" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub a b =
  check_same_dims "Mat.sub" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

let scale s a = { a with data = Array.map (fun x -> s *. x) a.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <-
            c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let mul_vec a x =
  if a.cols <> Array.length x then invalid_arg "Mat.mul_vec: dimension mismatch";
  let y = Array.make a.rows 0. in
  for i = 0 to a.rows - 1 do
    let acc = ref 0. in
    let base = i * a.cols in
    for j = 0 to a.cols - 1 do
      acc := !acc +. (a.data.(base + j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

let mul_transpose_vec a x =
  if a.rows <> Array.length x then invalid_arg "Mat.mul_transpose_vec: dimension mismatch";
  let y = Array.make a.cols 0. in
  for i = 0 to a.rows - 1 do
    let xi = x.(i) in
    let base = i * a.cols in
    for j = 0 to a.cols - 1 do
      y.(j) <- y.(j) +. (a.data.(base + j) *. xi)
    done
  done;
  y

(* In-place matrix-vector kernels for the solver workspaces.  They take and
   return nothing float-typed (buffers only), so a steady-state caller pays
   zero minor-heap words; the accumulation order is identical to the
   allocating variants above, making results bit-identical. *)

let gemv_into ~dst a x =
  if a.cols <> Array.length x then invalid_arg "Mat.gemv_into: dimension mismatch";
  if a.rows <> Array.length dst then invalid_arg "Mat.gemv_into: bad dst";
  let data = a.data in
  for i = 0 to a.rows - 1 do
    let acc = ref 0. in
    let base = i * a.cols in
    for j = 0 to a.cols - 1 do
      acc := !acc +. (Array.unsafe_get data (base + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set dst i !acc
  done

let gemv_t_into ~dst a x =
  if a.rows <> Array.length x then
    invalid_arg "Mat.gemv_t_into: dimension mismatch";
  if a.cols <> Array.length dst then invalid_arg "Mat.gemv_t_into: bad dst";
  Array.fill dst 0 a.cols 0.;
  let data = a.data in
  for i = 0 to a.rows - 1 do
    let xi = Array.unsafe_get x i in
    let base = i * a.cols in
    for j = 0 to a.cols - 1 do
      Array.unsafe_set dst j
        (Array.unsafe_get dst j +. (Array.unsafe_get data (base + j) *. xi))
    done
  done

let gram_into ~dst a =
  if dst.rows <> a.rows || dst.cols <> a.rows then
    invalid_arg "Mat.gram_into: bad dst";
  let data = a.data and g = dst.data in
  for i = 0 to a.rows - 1 do
    for j = i to a.rows - 1 do
      let acc = ref 0. in
      for k = 0 to a.cols - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get data ((i * a.cols) + k)
             *. Array.unsafe_get data ((j * a.cols) + k))
      done;
      Array.unsafe_set g ((i * dst.cols) + j) !acc;
      Array.unsafe_set g ((j * dst.cols) + i) !acc
    done
  done

let gram a =
  let g = create a.rows a.rows in
  for i = 0 to a.rows - 1 do
    for j = i to a.rows - 1 do
      let acc = ref 0. in
      for k = 0 to a.cols - 1 do
        acc := !acc +. (a.data.((i * a.cols) + k) *. a.data.((j * a.cols) + k))
      done;
      g.data.((i * g.cols) + j) <- !acc;
      g.data.((j * g.cols) + i) <- !acc
    done
  done;
  g

let frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.data)

let max_abs m = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. m.data

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let rec loop k =
    k >= Array.length a.data
    || (Float.abs (a.data.(k) -. b.data.(k)) <= tol && loop (k + 1))
  in
  loop 0

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%8.4g" m.data.((i * m.cols) + j)
    done;
    Format.fprintf ppf "]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
