(** A fixed number of byte slots in one malloc'd block outside the OCaml
    heap: the storage of a session's reply window ({!Session},
    DESIGN.md §16).

    Every slot is {!slot_cap} bytes wide.  A {!set} longer than that
    first regrids the slab: [slot_cap] grows to the string's length plus
    an eighth, and the held slots move into the larger block.  The
    block's bytes are not reported to the GC, so they never raise the
    major heap's size target; whoever owns the slab frees the block with
    {!release} (a finaliser frees what is never released).

    Not thread-safe: the owner serializes every call. *)

type t

val create : slots:int -> t
(** [slots] empty slots.  No block is allocated before the first
    {!set} of a non-empty string. *)

val slot_cap : t -> int
(** The width of every slot, in bytes: 0 before the first {!set}. *)

val set : t -> int -> string -> unit
(** [set t i s] stores a copy of [s] in slot [i].  Once [s] fits in
    {!slot_cap} it allocates nothing on the OCaml heap.  Does nothing
    after {!release}.  Raises [Invalid_argument] if [i] is not a slot,
    and [Out_of_memory] if a regrid's block cannot be allocated. *)

val set_sub : t -> int -> bytes -> off:int -> len:int -> unit
(** [set_sub t i b ~off ~len] is {!set} of the [len] bytes of [b] at
    [off], read in place: journal replay fills a window from its read
    buffer with it.  Raises [Invalid_argument] also when the range is
    not inside [b]. *)

val get : t -> int -> string
(** A copy of what slot [i] holds: [""] if it was never set, or after
    {!release}.  Raises [Invalid_argument] if [i] is not a slot. *)

val release : t -> unit
(** Free the block now.  Every slot reads [""] afterwards, and {!set}
    does nothing.  Releasing twice is harmless. *)

val released : t -> bool
