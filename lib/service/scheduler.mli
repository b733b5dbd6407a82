(** Request scheduler: positionally deterministic, deadline-aware batch
    dispatch.

    Shards heterogeneous work arrays across a {!Dadu_util.Domain_pool},
    in fixed-size chunks, with three guarantees the serving layer builds
    on:

    - {b positional}: result [i] always corresponds to input [i];
    - {b deterministic}: serial [prepare]/[commit] phases run in input
      order between parallel waves, so stateful per-batch logic (the seed
      cache, metrics) observes the same interleaving whatever the pool
      size — including no pool at all;
    - {b contained}: an exception thrown by a work item is captured as
      that item's [Error], never escaping a worker domain or poisoning
      the rest of the batch.

    Deadlines ride on the same structure: expiry against per-request
    deadlines and the batch time budget is decided in the {e serial}
    prepare phase, so which requests are short-circuited never depends on
    worker scheduling — only on the clock. *)

type t

val create : ?pool:Dadu_util.Domain_pool.t -> ?chunk:int -> unit -> t
(** [chunk] (default 64, positive) is the wave size: each wave is
    prepared serially, solved in parallel, committed serially.  Without
    [pool] everything runs on the caller. *)

val map : t -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Plain positional parallel map with per-item exception capture (a
    single wave; chunking irrelevant). *)

type dispatch = {
  index : int;  (** position of the request in the batch *)
  elapsed_s : float;
      (** since the batch started, read as the dispatch's wave begins *)
  expired : bool;
      (** the batch budget is exhausted or this request's deadline has
          passed; the caller's [prepare] should route it to its cheapest
          handling *)
}

type wave_phase = Prepare | Work | Commit
(** The three phases of one scheduler wave, in order.  [Prepare] and
    [Commit] run on the orchestrating domain (though [prepare] may fan
    work out itself); [Work] is the pool phase. *)

val map_deadlined :
  t ->
  ?now:(unit -> float) ->
  ?budget_s:float ->
  ?deadline_s:(int -> float option) ->
  ?cut:(base:int -> int -> bool) ->
  ?phase_done:
    (wave_phase -> base:int -> len:int -> start_s:float -> dur_s:float -> unit) ->
  prepare:(dispatch array -> 'p array) ->
  work:('p -> 'b) ->
  commit:(int -> ('b, exn) result -> unit) ->
  int ->
  ('b, exn) result array
(** [map_deadlined t ~prepare ~work ~commit n] runs items [0 .. n-1] in
    chunks.  For each chunk, in input order: [prepare] once over the
    chunk's dispatches, then [work] over the prepared chunk (in parallel
    when a pool is present), then [commit i result] serially for each
    item.  [prepare] for chunk [k+1] therefore observes every [commit]
    of chunk [k] — the warm-start window of the serving layer.
    Exceptions from [prepare] or [commit] propagate to the caller (they
    run on the caller's domain); exceptions from [work] are captured per
    item.

    The dispatches are built serially in input order — one clock read
    each, {e before} any prepare work runs, so expiry decisions are the
    wave-start snapshot of the clock — and handed to [prepare] whole
    ([dispatch.index] addresses the caller's own input).  [prepare] must
    return one prepared value per dispatch, positionally; a wrong arity
    raises.

    [dispatch.expired] is true once [elapsed_s] reaches [budget_s] or the
    item's own [deadline_s index] (both measured from the batch start,
    inclusive: a 0-second deadline expires immediately, whatever the
    clock's resolution).  With neither given, [expired] is always false
    and results cannot depend on the clock.  [now] (default
    {!Dadu_util.Trace.now_s}) exists so tests can drive expiry
    deterministically.

    [cut], when given, can end a wave early: a wave starting at [base]
    stops before the first item [i] (with [base < i < base + chunk])
    for which [cut ~base i] is true, so that item starts the next wave
    and its prepare observes the commits of everything before it.  The
    serving layer uses this to order a trajectory session's waypoints:
    a waypoint landing in the same wave as an earlier waypoint of the
    same session must see its committed solution (the session seed
    slot).  [cut] is queried serially in input order, so wave shapes —
    and therefore results — are a pure function of the input, never of
    the pool size or the clock.

    [phase_done p ~base ~len ~start_s ~dur_s] observes each wave's
    phases from the orchestrating domain, immediately after phase [p],
    with wall times from the real monotonic clock (never [now], so a
    fake clock's reading budget is unaffected).  It must not raise; it
    exists for phase accounting (metrics and trace spans). *)
