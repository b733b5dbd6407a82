(** A reusable pool of OCaml 5 domains for data-parallel loops.

    Independent IK work — a batch's problems, a serving wave's requests, a
    wave's seed-scoring rows — is embarrassingly parallel; this pool plays
    the role of the paper's "multithreads architecture" on the host.
    Domains are spawned once and reused across every {!parallel_for} call,
    because spawning a domain per wave would dominate the runtime.

    The pool serialises concurrent [parallel_for] calls: it is safe to call
    from one orchestrating thread at a time (the normal bench/solver usage).
    Loop bodies must not themselves call into the same pool. *)

type t

val create : int -> t
(** [create n] spawns [max 0 (n-1)] worker domains; the caller participates
    as the [n]-th worker during {!parallel_for}.  [n] must be positive. *)

val size : t -> int
(** Total parallelism (workers + caller). *)

val parallel_for : ?grain:int -> t -> int -> (int -> unit) -> unit
(** [parallel_for ?grain t n body] runs [body i] for each [i] in
    [\[0, n)], work-stealing from a shared counter.  Returns when all are
    done.  [grain] (default 1, must be positive) sets how many contiguous
    items one steal claims: dispatch cost drops from [n] atomic fetches to
    [ceil(n/grain)], at the price of coarser load balancing — the right
    trade when items are small and uniform (e.g. speculative FK
    candidates).  Exceptions raised by [body] are re-raised in the caller
    (first one wins; remaining items may or may not have run). *)

val parallel_for_chunks : t -> grain:int -> int -> (int -> int -> unit) -> unit
(** [parallel_for_chunks t ~grain n body] is the chunk-level view of a
    grained {!parallel_for}: [body lo hi] is called once per stolen chunk
    with [0 <= lo < hi <= n] and [hi - lo <= grain], chunks partitioning
    [\[0, n)] contiguously.  Use it when the caller has a kernel that
    processes a whole range cheaper than per-item calls (the seed
    selector's link-major row sweep). *)

val map : t -> (int -> 'a) -> int -> 'a array
(** [map t f n] is [Array.init n f] computed in parallel — all [n] items
    are dispatched through {!parallel_for} (no item runs serially ahead of
    the workers). *)

val shutdown : t -> unit
(** Joins the worker domains.  The pool must not be used afterwards. *)

val recommended_size : unit -> int
(** [Domain.recommended_domain_count], capped to a sane bench value. *)
