(** FNV-1a (64-bit), the checksum of {!Journal} records and of
    {!Posture_library} files, in C (checksum_stubs.c).

    A stored checksum is the 8 little-endian bytes right after the span
    it covers.  {!verify} checks many spans in one call, four records'
    hash chains interleaved: one record's chain is serial, but four
    independent ones overlap in the multiplier.  Every value is the one
    the byte-serial loop [h <- (h lxor byte) * 0x100000001b3] from
    [0xcbf29ce484222325] computes (pinned bit for bit in
    test_journal.ml). *)

val seal : bytes -> off:int -> len:int -> unit
(** [seal b ~off ~len] writes the checksum of [b.[off .. off+len-1]]
    into [b.[off+len .. off+len+7]].  Raises [Invalid_argument] when
    those 8 bytes do not fit. *)

val verify : bytes -> spans:int array -> count:int -> int
(** [verify b ~spans ~count] checks spans [0 .. count-1], span [i]
    being [b.[off .. off+len-1]] with [off = spans.(2i)] and
    [len = spans.(2i+1)], each against its stored checksum.  Returns the
    least [i] whose checksum differs, or [count] when all match.
    Allocation-free.  Raises [Invalid_argument] on a span (or stored
    checksum) outside [b], or on [count] out of range for [spans]. *)
