open Dadu_linalg

(* LRU over (chain, dof, cell) keys: a hash table into an intrusive
   doubly-linked recency list, most-recent at the head. *)

type key = int * int * int * int * int (* chain_id, dof, ix, iy, iz *)

type node = {
  key : key;
  mutable theta : Vec.t;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  cell_size : float;
  capacity : int;
  table : (key, node) Hashtbl.t;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* least recently used *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 4096) ~cell_size () =
  if capacity <= 0 then invalid_arg "Seed_cache.create: capacity must be positive";
  if not (cell_size > 0. && Float.is_finite cell_size) then
    invalid_arg "Seed_cache.create: cell_size must be positive and finite";
  {
    cell_size;
    capacity;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
  }

let cell_size t = t.cell_size
let capacity t = t.capacity
let length t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses

let finite3 (v : Vec3.t) =
  Float.is_finite v.Vec3.x && Float.is_finite v.Vec3.y && Float.is_finite v.Vec3.z

let key_of t ~chain_id ~dof (v : Vec3.t) =
  let bucket x = int_of_float (Float.floor (x /. t.cell_size)) in
  (chain_id, dof, bucket v.Vec3.x, bucket v.Vec3.y, bucket v.Vec3.z)

(* ---- recency list plumbing ---- *)

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let touch t node =
  if t.head != Some node then begin
    unlink t node;
    push_front t node
  end

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key

(* ---- public operations ---- *)

let find t ~chain_id ~dof target =
  if not (finite3 target) then begin
    t.misses <- t.misses + 1;
    None
  end
  else
    match Hashtbl.find_opt t.table (key_of t ~chain_id ~dof target) with
    | Some node ->
      t.hits <- t.hits + 1;
      touch t node;
      Some (Vec.copy node.theta)
    | None ->
      t.misses <- t.misses + 1;
      None

let store t ~chain_id ~dof ~target theta =
  if Vec.dim theta <> dof then invalid_arg "Seed_cache.store: theta length <> dof";
  if finite3 target then begin
    let key = key_of t ~chain_id ~dof target in
    match Hashtbl.find_opt t.table key with
    | Some node ->
      node.theta <- Vec.copy theta;
      touch t node
    | None ->
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let node = { key; theta = Vec.copy theta; prev = None; next = None } in
      Hashtbl.add t.table key node;
      push_front t node
  end
