(** The text of reply payloads, appended to a [Buffer] without Printf:
    ints as [%d], booleans as [%b], strings as [%S] and doubles as C's
    ["%.17g"] print them.  The server's replies and serve-batch's
    [--replies] lines are both written with it.

    Doubles are converted in C (float_stubs.c): finite doubles from
    about 1e-22 up to 2^53 in magnitude, and both zeros, by exact
    integer arithmetic; every other value (NaN, infinities, subnormals,
    larger or smaller magnitudes) by the runtime's ["%.17g"]
    conversion.  Either way the bytes are the ones
    [Printf.sprintf "%.17g"] produces (pinned in test_server.ml). *)

val scratch_bytes : int
(** The room {!write_float} needs: 32 bytes. *)

val write_float : bytes -> int -> float -> int
(** [write_float b off x] writes [x]'s ["%.17g"] text into [b] at [off]
    and returns its length.  Allocation-free except for the values that
    go to the runtime's conversion.  Raises [Invalid_argument] when [b]
    has fewer than {!scratch_bytes} bytes from [off]. *)

val add_float : Buffer.t -> bytes -> float -> unit
(** [add_float buf scratch x] appends [x]'s ["%.17g"] text to [buf],
    written first into [scratch] (at least {!scratch_bytes} long).  The
    scratch is the caller's, so writers on different threads never
    share it. *)

val add_floats : Buffer.t -> bytes -> float array -> unit
(** [add_floats buf scratch xs] appends the entries of [xs] as
    {!add_float} does, comma-separated.  The entries go to the
    converter unboxed, so nothing is allocated beyond [buf]'s growth
    (and the runtime's conversions). *)

val add_int : Buffer.t -> int -> unit

val add_bool : Buffer.t -> bool -> unit

val add_quoted : Buffer.t -> string -> unit
(** A string as Printf's [%S] writes it: [String.escaped] between
    double quotes. *)
