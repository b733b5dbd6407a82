open Dadu_linalg
open Dadu_kinematics
module Rng = Dadu_util.Rng

(* The grid is CSR over the bounding box of the sampled end-effector
   positions: [starts] has one offset per cell (row-major x,y,z) plus a
   terminator, [items] holds posture indices sorted by (cell, index).
   Bounded by [max_cells] so a pathological cell size cannot demand
   gigabytes. *)

type grid = {
  min_cx : int;
  min_cy : int;
  min_cz : int;
  nx : int;
  ny : int;
  nz : int;
  starts : int array; (* length nx*ny*nz + 1 *)
  items : int array; (* length count, ascending within each cell *)
}

type t = {
  chain_name : string;
  fingerprint : int;
  dof : int;
  cell_size : float;
  postures : Vec.t array;
  positions : float array; (* flat, positions.(3i..3i+2) = x,y,z of posture i *)
  grid : grid;
  mutable nn_best : int;
      (* nearest-neighbour scan state lives on the record, not in refs or
         closures: lookups are pinned allocation-free, and a mutable float
         field of this mixed record would box on every write — hence the
         one-element array for the running distance *)
  nn_d2 : float array; (* length 1 *)
}

let max_cells = 1 lsl 22

let bucket cell x = int_of_float (Float.floor (x /. cell))

let make_grid ~cell ~positions ~count =
  if count = 0 then failwith "empty library";
  let min_cx = ref max_int and max_cx = ref min_int in
  let min_cy = ref max_int and max_cy = ref min_int in
  let min_cz = ref max_int and max_cz = ref min_int in
  for i = 0 to count - 1 do
    for k = 0 to 2 do
      if not (Float.is_finite positions.((3 * i) + k)) then
        failwith "non-finite end-effector position"
    done;
    let cx = bucket cell positions.((3 * i) + 0) in
    let cy = bucket cell positions.((3 * i) + 1) in
    let cz = bucket cell positions.((3 * i) + 2) in
    if cx < !min_cx then min_cx := cx;
    if cx > !max_cx then max_cx := cx;
    if cy < !min_cy then min_cy := cy;
    if cy > !max_cy then max_cy := cy;
    if cz < !min_cz then min_cz := cz;
    if cz > !max_cz then max_cz := cz
  done;
  let nx = !max_cx - !min_cx + 1 in
  let ny = !max_cy - !min_cy + 1 in
  let nz = !max_cz - !min_cz + 1 in
  if nx <= 0 || ny <= 0 || nz <= 0 then failwith "non-finite positions";
  (* overflow-safe budget check before multiplying out *)
  if nx > max_cells || ny > max_cells || nz > max_cells
     || nx * ny > max_cells / nz
  then
    failwith
      (Printf.sprintf "cell size %g makes a %dx%dx%d grid (budget %d cells)"
         cell nx ny nz max_cells);
  let ncells = nx * ny * nz in
  let cell_of i =
    let cx = bucket cell positions.((3 * i) + 0) - !min_cx in
    let cy = bucket cell positions.((3 * i) + 1) - !min_cy in
    let cz = bucket cell positions.((3 * i) + 2) - !min_cz in
    ((cx * ny) + cy) * nz + cz
  in
  let starts = Array.make (ncells + 1) 0 in
  for i = 0 to count - 1 do
    let c = cell_of i in
    starts.(c + 1) <- starts.(c + 1) + 1
  done;
  for c = 1 to ncells do
    starts.(c) <- starts.(c) + starts.(c - 1)
  done;
  let fill = Array.copy starts in
  let items = Array.make count 0 in
  (* ascending i keeps each cell's slice ascending, which is what makes
     the ring scan's tie-break agree with the brute-force argmin *)
  for i = 0 to count - 1 do
    let c = cell_of i in
    items.(fill.(c)) <- i;
    fill.(c) <- fill.(c) + 1
  done;
  {
    min_cx = !min_cx;
    min_cy = !min_cy;
    min_cz = !min_cz;
    nx;
    ny;
    nz;
    starts;
    items;
  }

let default_cell chain =
  let reach = Chain.reach chain in
  if Float.is_finite reach && reach > 0. then reach /. 8. else 1.0

let build ?cell_size ?(seed = 42) ~chain ~count () =
  if count <= 0 then
    invalid_arg "Posture_library.build: count must be positive";
  let cell_size =
    match cell_size with
    | None -> default_cell chain
    | Some c ->
      if not (c > 0. && Float.is_finite c) then
        invalid_arg "Posture_library.build: cell_size must be positive and finite";
      c
  in
  let dof = Chain.dof chain in
  let rng = Rng.create seed in
  let scratch = Fk.make_scratch ~dof () in
  let postures = Array.make count [||] in
  let positions = Array.make (3 * count) 0. in
  let dst = Array.make 3 0. in
  (* explicit loop: the sampling order (hence the library contents) must
     not depend on Array.init's evaluation order *)
  for i = 0 to count - 1 do
    let q = Target.random_config rng chain in
    postures.(i) <- q;
    Fk.position_into ~scratch ~dst chain q;
    positions.((3 * i) + 0) <- dst.(0);
    positions.((3 * i) + 1) <- dst.(1);
    positions.((3 * i) + 2) <- dst.(2)
  done;
  let grid =
    try make_grid ~cell:cell_size ~positions ~count
    with Failure msg -> invalid_arg ("Posture_library.build: " ^ msg)
  in
  {
    chain_name = Chain.name chain;
    fingerprint = Chain.fingerprint chain;
    dof;
    cell_size;
    postures;
    positions;
    grid;
    nn_best = -1;
    nn_d2 = [| infinity |];
  }

let chain_name t = t.chain_name
let fingerprint t = t.fingerprint
let dof t = t.dof
let size t = Array.length t.postures
let cell_size t = t.cell_size

let matches t chain =
  t.dof = Chain.dof chain && t.fingerprint = Chain.fingerprint chain

let check_index t i =
  if i < 0 || i >= size t then invalid_arg "Posture_library: index out of range"

let posture t i =
  check_index t i;
  Vec.copy t.postures.(i)

(* offset variant for callers assembling postures into rows of a flat
   candidate plane (Seed_select's wave-fused scoring) *)
let blit_posture_into t i dst ~pos =
  check_index t i;
  if pos < 0 || pos + t.dof > Array.length dst then
    invalid_arg "Posture_library.blit_posture_into: row out of bounds";
  Array.blit t.postures.(i) 0 dst pos t.dof

let position t i =
  check_index t i;
  Vec3.make
    t.positions.((3 * i) + 0)
    t.positions.((3 * i) + 1)
    t.positions.((3 * i) + 2)

(* Exact nearest neighbour by expanding Chebyshev rings.  A cell at ring
   distance r from the query cell cannot hold a point closer than
   (r-1)·cell (the query sits somewhere inside its own cell), so once a
   best candidate is in hand the scan stops at the first ring whose lower
   bound exceeds it.  Within the cube [-r, r]³ only the shell
   max(|dx|,|dy|,|dz|) = r is scanned each round, clipped to the grid's
   bounding box.  Ties in distance go to the lowest posture index, which
   is exactly the brute-force argmin's behaviour whatever the cell scan
   order. *)
(* The scan helpers are top-level (not nested) on purpose: nested
   functions capturing the query would allocate a closure per lookup, and
   loop state lives in [nn_best]/[nn_d2] instead of refs for the same
   reason. *)
let scan_cell t ~x ~y ~z cx cy cz =
  let g = t.grid in
  let c = (((cx * g.ny) + cy) * g.nz) + cz in
  let stop = g.starts.(c + 1) in
  for s = g.starts.(c) to stop - 1 do
    let i = g.items.(s) in
    let dx = t.positions.((3 * i) + 0) -. x in
    let dy = t.positions.((3 * i) + 1) -. y in
    let dz = t.positions.((3 * i) + 2) -. z in
    let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
    if d2 < t.nn_d2.(0) || (d2 = t.nn_d2.(0) && i < t.nn_best) then begin
      t.nn_best <- i;
      t.nn_d2.(0) <- d2
    end
  done

let scan_shell t ~x ~y ~z ~qx ~qy ~qz rr =
  let g = t.grid in
  let x0 = Stdlib.max 0 (qx - rr) and x1 = Stdlib.min (g.nx - 1) (qx + rr) in
  let y0 = Stdlib.max 0 (qy - rr) and y1 = Stdlib.min (g.ny - 1) (qy + rr) in
  let z0 = Stdlib.max 0 (qz - rr) and z1 = Stdlib.min (g.nz - 1) (qz + rr) in
  for cx = x0 to x1 do
    for cy = y0 to y1 do
      for cz = z0 to z1 do
        let cheb =
          Stdlib.max (abs (cx - qx)) (Stdlib.max (abs (cy - qy)) (abs (cz - qz)))
        in
        if cheb = rr then scan_cell t ~x ~y ~z cx cy cz
      done
    done
  done

let rec scan_rings t ~x ~y ~z ~qx ~qy ~qz ~max_ring r =
  if r <= max_ring then begin
    let lb = float_of_int (r - 1) *. t.cell_size in
    if not (t.nn_best >= 0 && r >= 1 && lb *. lb > t.nn_d2.(0)) then begin
      scan_shell t ~x ~y ~z ~qx ~qy ~qz r;
      scan_rings t ~x ~y ~z ~qx ~qy ~qz ~max_ring (r + 1)
    end
  end

let far a lo hi = Stdlib.max (abs (a - lo)) (abs (hi - a))

let nearest_index t ~x ~y ~z =
  if
    not (Float.is_finite x && Float.is_finite y && Float.is_finite z)
  then -1
  else begin
    let g = t.grid in
    let cell = t.cell_size in
    let qx = bucket cell x - g.min_cx in
    let qy = bucket cell y - g.min_cy in
    let qz = bucket cell z - g.min_cz in
    let max_ring =
      Stdlib.max
        (far qx 0 (g.nx - 1))
        (Stdlib.max (far qy 0 (g.ny - 1)) (far qz 0 (g.nz - 1)))
    in
    t.nn_best <- -1;
    t.nn_d2.(0) <- infinity;
    scan_rings t ~x ~y ~z ~qx ~qy ~qz ~max_ring 0;
    t.nn_best
  end

let nearest t (v : Vec3.t) =
  let i = nearest_index t ~x:v.Vec3.x ~y:v.Vec3.y ~z:v.Vec3.z in
  if i < 0 then None
  else begin
    let dx = t.positions.((3 * i) + 0) -. v.Vec3.x in
    let dy = t.positions.((3 * i) + 1) -. v.Vec3.y in
    let dz = t.positions.((3 * i) + 2) -. v.Vec3.z in
    Some (Vec.copy t.postures.(i), sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz)))
  end

(* ---- persistence ----

   Flat binary, little-endian:

     magic "DADUPLIB" | u32 version | u32 name_len | name bytes
     | i64 fingerprint | u32 dof | u32 count | f64 cell_size
     | count x dof f64 (postures) | count x 3 f64 (positions)
     | u64 FNV-1a checksum of every preceding byte

   Positions are stored rather than recomputed on load so a round trip
   is bit-identical by construction, independent of the FK kernel. *)

type load_error =
  | Io of string
  | Bad_magic
  | Unsupported_version of int
  | Truncated
  | Checksum_mismatch
  | Malformed of string

let pp_load_error ppf = function
  | Io msg -> Format.fprintf ppf "%s" msg
  | Bad_magic -> Format.fprintf ppf "not a posture library (bad magic)"
  | Unsupported_version v ->
    Format.fprintf ppf "unsupported posture library version %d" v
  | Truncated -> Format.fprintf ppf "truncated posture library"
  | Checksum_mismatch ->
    Format.fprintf ppf "posture library checksum mismatch (corrupted)"
  | Malformed msg -> Format.fprintf ppf "malformed posture library: %s" msg

let magic = "DADUPLIB"
let version = 1
let max_name_len = 4096

let encoded_size t =
  8 + 4 + 4
  + String.length t.chain_name
  + 8 + 4 + 4 + 8
  + (8 * size t * (t.dof + 3))
  + 8

let encode t =
  let n = encoded_size t in
  let b = Bytes.create n in
  let off = ref 0 in
  let put_bytes s =
    Bytes.blit_string s 0 b !off (String.length s);
    off := !off + String.length s
  in
  let put_u32 v =
    Bytes.set_int32_le b !off (Int32.of_int v);
    off := !off + 4
  in
  let put_i64 v =
    Bytes.set_int64_le b !off v;
    off := !off + 8
  in
  let put_f64 v = put_i64 (Int64.bits_of_float v) in
  put_bytes magic;
  put_u32 version;
  put_u32 (String.length t.chain_name);
  put_bytes t.chain_name;
  put_i64 (Int64.of_int t.fingerprint);
  put_u32 t.dof;
  put_u32 (size t);
  put_f64 t.cell_size;
  Array.iter (fun q -> Array.iter put_f64 q) t.postures;
  Array.iter put_f64 t.positions;
  Checksum.seal b ~off:0 ~len:(n - 8);
  assert (!off + 8 = n);
  b

let save t path =
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_bytes oc (encode t))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Io msg)

let decode b =
  let len = Bytes.length b in
  let ( let* ) r f = Result.bind r f in
  let* () = if len < 8 then Error Truncated else Ok () in
  let* () =
    if Bytes.sub_string b 0 8 <> magic then Error Bad_magic else Ok ()
  in
  let u32 off = Int32.to_int (Bytes.get_int32_le b off) in
  let* () = if len < 16 then Error Truncated else Ok () in
  let v = u32 8 in
  let* () = if v <> version then Error (Unsupported_version v) else Ok () in
  let name_len = u32 12 in
  let* () =
    if name_len < 0 || name_len > max_name_len then
      Error (Malformed "chain name length out of range")
    else Ok ()
  in
  (* fixed fields after the name: fingerprint, dof, count, cell_size *)
  let* () = if len < 16 + name_len + 24 then Error Truncated else Ok () in
  let chain_name = Bytes.sub_string b 16 name_len in
  let off = 16 + name_len in
  let fingerprint = Int64.to_int (Bytes.get_int64_le b off) in
  let dof = u32 (off + 8) in
  let count = u32 (off + 12) in
  let* () =
    if dof <= 0 || dof > 1_000_000 then Error (Malformed "dof out of range")
    else if count <= 0 || count > 100_000_000 then
      Error (Malformed "posture count out of range")
    else Ok ()
  in
  let cell_size = Int64.float_of_bits (Bytes.get_int64_le b (off + 16)) in
  let* () =
    if not (cell_size > 0. && Float.is_finite cell_size) then
      Error (Malformed "cell size must be positive and finite")
    else Ok ()
  in
  let payload = off + 24 in
  let expected = payload + (8 * count * (dof + 3)) + 8 in
  let* () = if len < expected then Error Truncated else Ok () in
  let* () =
    if len > expected then Error (Malformed "trailing bytes") else Ok ()
  in
  let* () =
    if Checksum.verify b ~spans:[| 0; len - 8 |] ~count:1 = 0 then
      Error Checksum_mismatch
    else Ok ()
  in
  let f64 k = Int64.float_of_bits (Bytes.get_int64_le b (payload + (8 * k))) in
  let postures =
    Array.init count (fun i -> Array.init dof (fun j -> f64 ((i * dof) + j)))
  in
  let positions = Array.init (3 * count) (fun k -> f64 ((count * dof) + k)) in
  let* grid =
    match make_grid ~cell:cell_size ~positions ~count with
    | g -> Ok g
    | exception Failure msg -> Error (Malformed msg)
  in
  Ok
    { chain_name; fingerprint; dof; cell_size; postures; positions; grid;
      nn_best = -1; nn_d2 = [| infinity |] }

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        let b = Bytes.create n in
        really_input ic b 0 n;
        b)
  with
  | b -> decode b
  | exception Sys_error msg -> Error (Io msg)
