(* The block lives in C (slab_stubs.c); the geometry lives here, and
   every offset and length is checked here before a stub runs. *)
type block

external create_block : unit -> block = "dadu_slab_create"

external regrid :
  block -> int array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "dadu_slab_regrid_byte" "dadu_slab_regrid"
[@@noalloc]

external put : block -> (int[@untagged]) -> string -> unit
  = "dadu_slab_put_byte" "dadu_slab_put"
[@@noalloc]

external get_into : block -> (int[@untagged]) -> bytes -> unit
  = "dadu_slab_get_byte" "dadu_slab_get"
[@@noalloc]

external release_block : block -> unit = "dadu_slab_release" [@@noalloc]

type t = {
  block : block;
  lengths : int array; (* per slot: the bytes it holds *)
  mutable cap : int; (* every slot's width *)
  mutable released : bool;
}

let create ~slots =
  if slots < 1 then invalid_arg "Slab.create: slots must be positive";
  { block = create_block (); lengths = Array.make slots 0; cap = 0; released = false }

let slot_cap t = t.cap

let released t = t.released

let check t i name =
  if i < 0 || i >= Array.length t.lengths then
    invalid_arg (name ^ ": slot out of range")

(* the longest string seen plus an eighth, so a run of replies that grow
   by a few bytes each regrids a handful of times, not once per reply *)
let grow t len =
  let cap = len + (len / 8) in
  if regrid t.block t.lengths t.cap cap = 0 then raise Out_of_memory;
  t.cap <- cap

let set t i s =
  check t i "Slab.set";
  if not t.released then begin
    let len = String.length s in
    if len > t.cap then grow t len;
    put t.block (i * t.cap) s;
    t.lengths.(i) <- len
  end

let get t i =
  check t i "Slab.get";
  if t.released then ""
  else begin
    let b = Bytes.create t.lengths.(i) in
    get_into t.block (i * t.cap) b;
    Bytes.unsafe_to_string b
  end

let release t =
  if not t.released then begin
    t.released <- true;
    release_block t.block;
    Array.fill t.lengths 0 (Array.length t.lengths) 0;
    t.cap <- 0
  end
