open Dadu_util
open Dadu_core

type t = {
  requests : int Atomic.t;
  converged : int Atomic.t;
  failed : int Atomic.t;
  rejected : int Atomic.t;
  faulted : int Atomic.t;
  fallback_used : int Atomic.t;
  deadline_exceeded : int Atomic.t;
  diverged : int Atomic.t;
  breaker_skips : int Atomic.t;
  retries : int Atomic.t;
  retry_converged : int Atomic.t;
  session_requests : int Atomic.t;
  session_warm : int Atomic.t;
  library_hits : int Atomic.t;
  seed_theta0_wins : int Atomic.t;
  seed_session_wins : int Atomic.t;
  seed_library_wins : int Atomic.t;
  seed_zero_wins : int Atomic.t;
  seed_perturbed_wins : int Atomic.t;
  (* connection-hygiene and crash-safety failure modes, bumped from the
     server's reader/delivery paths *)
  timeouts : int Atomic.t;
  disconnects : int Atomic.t;
  journal_appends : int Atomic.t;
  journal_replays : int Atomic.t;
  retry_after_sheds : int Atomic.t;
  busy_refusals : int Atomic.t;
  lock : Mutex.t; (* guards the histograms and the phase accumulators *)
  latency : Histogram.t;
  iterations : Histogram.t;
  (* wall time per scheduler phase, accumulated once per wave from the
     orchestrating domain — the serial-fraction observability *)
  mutable prepare_s : float;
  mutable work_s : float;
  mutable commit_s : float;
}

let create () =
  {
    requests = Atomic.make 0;
    converged = Atomic.make 0;
    failed = Atomic.make 0;
    rejected = Atomic.make 0;
    faulted = Atomic.make 0;
    fallback_used = Atomic.make 0;
    deadline_exceeded = Atomic.make 0;
    diverged = Atomic.make 0;
    breaker_skips = Atomic.make 0;
    retries = Atomic.make 0;
    retry_converged = Atomic.make 0;
    session_requests = Atomic.make 0;
    session_warm = Atomic.make 0;
    library_hits = Atomic.make 0;
    seed_theta0_wins = Atomic.make 0;
    seed_session_wins = Atomic.make 0;
    seed_library_wins = Atomic.make 0;
    seed_zero_wins = Atomic.make 0;
    seed_perturbed_wins = Atomic.make 0;
    timeouts = Atomic.make 0;
    disconnects = Atomic.make 0;
    journal_appends = Atomic.make 0;
    journal_replays = Atomic.make 0;
    retry_after_sheds = Atomic.make 0;
    busy_refusals = Atomic.make 0;
    lock = Mutex.create ();
    latency = Histogram.create ();
    iterations = Histogram.create ();
    prepare_s = 0.;
    work_s = 0.;
    commit_s = 0.;
  }

type phase = Prepare | Work | Commit

let phase_name = function
  | Prepare -> "prepare"
  | Work -> "work"
  | Commit -> "commit"

let record_phase t phase dur_s =
  Mutex.lock t.lock;
  (match phase with
  | Prepare -> t.prepare_s <- t.prepare_s +. dur_s
  | Work -> t.work_s <- t.work_s +. dur_s
  | Commit -> t.commit_s <- t.commit_s +. dur_s);
  Mutex.unlock t.lock

type event =
  | Rejected of Ik.invalid
  | Faulted of string
  | Solved of {
      converged : bool;
      diverged : bool;
      fallbacks : int;
      session : bool;
      session_hit : bool;
      deadline_exceeded : bool;
      breaker_skips : int;
      retries : int;
      retry_converged : bool;
      latency_s : float;
      iterations : int;
    }

let bump c = Atomic.incr c

let add c n = if n > 0 then ignore (Atomic.fetch_and_add c n)

(* speculative seed selection outcome for one request; bumped from the
   scheduler's serial prepare phase, so counts are pool-size independent *)
let record_seed t ~library_hit (source : Seed_select.source) =
  if library_hit then bump t.library_hits;
  bump
    (match source with
    | Seed_select.Theta0 -> t.seed_theta0_wins
    | Seed_select.Session -> t.seed_session_wins
    | Seed_select.Library -> t.seed_library_wins
    | Seed_select.Zero -> t.seed_zero_wins
    | Seed_select.Perturbed -> t.seed_perturbed_wins)

(* server-side failure modes outside the solve pipeline; each bumps one
   counter, none count as a request *)
type net_event =
  | Timeout  (** a connection hit its idle or frame read deadline *)
  | Disconnect  (** a connection dropped uncleanly (desync, reset, cut) *)
  | Journal_append  (** one record written to the session journal *)
  | Journal_replay  (** one record applied from the journal at startup *)
  | Retry_after_shed  (** a shed that attached a retry_after hint *)
  | Busy_refusal  (** a connection refused at the connection cap *)

let record_net t = function
  | Timeout -> bump t.timeouts
  | Disconnect -> bump t.disconnects
  | Journal_append -> bump t.journal_appends
  | Journal_replay -> bump t.journal_replays
  | Retry_after_shed -> bump t.retry_after_sheds
  | Busy_refusal -> bump t.busy_refusals

let record t event =
  bump t.requests;
  match event with
  | Rejected _ -> bump t.rejected
  | Faulted _ -> bump t.faulted
  | Solved
      {
        converged;
        diverged;
        fallbacks;
        session;
        session_hit;
        deadline_exceeded;
        breaker_skips;
        retries;
        retry_converged;
        latency_s;
        iterations;
      } ->
    bump (if converged then t.converged else t.failed);
    if diverged then bump t.diverged;
    if fallbacks > 0 then bump t.fallback_used;
    if deadline_exceeded then bump t.deadline_exceeded;
    add t.breaker_skips breaker_skips;
    add t.retries retries;
    if retry_converged then bump t.retry_converged;
    if session then begin
      bump t.session_requests;
      if session_hit then bump t.session_warm
    end;
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        Histogram.add t.latency latency_s;
        Histogram.add t.iterations (float_of_int iterations))

let reset t =
  List.iter
    (fun c -> Atomic.set c 0)
    [
      t.requests;
      t.converged;
      t.failed;
      t.rejected;
      t.faulted;
      t.fallback_used;
      t.deadline_exceeded;
      t.diverged;
      t.breaker_skips;
      t.retries;
      t.retry_converged;
      t.session_requests;
      t.session_warm;
      t.library_hits;
      t.seed_theta0_wins;
      t.seed_session_wins;
      t.seed_library_wins;
      t.seed_zero_wins;
      t.seed_perturbed_wins;
      t.timeouts;
      t.disconnects;
      t.journal_appends;
      t.journal_replays;
      t.retry_after_sheds;
      t.busy_refusals;
    ];
  Mutex.lock t.lock;
  Histogram.clear t.latency;
  Histogram.clear t.iterations;
  t.prepare_s <- 0.;
  t.work_s <- 0.;
  t.commit_s <- 0.;
  Mutex.unlock t.lock

type snapshot = {
  requests : int;
  converged : int;
  failed : int;
  rejected : int;
  faulted : int;
  fallback_used : int;
  deadline_exceeded : int;
  cache_hits : int;
  cache_misses : int;
  diverged : int;
  breaker_skips : int;
  retries : int;
  retry_converged : int;
  session_requests : int;
  session_warm : int;
  library_hits : int;
  seed_theta0_wins : int;
  seed_session_wins : int;
  seed_library_wins : int;
  seed_zero_wins : int;
  seed_perturbed_wins : int;
  timeouts : int;
  disconnects : int;
  journal_appends : int;
  journal_replays : int;
  retry_after_sheds : int;
  busy_refusals : int;
  prepare_s : float;
  work_s : float;
  commit_s : float;
  latency : Histogram.summary option;
  iterations : Histogram.summary option;
}

(* [summaries] walks each histogram's buckets under [lock]: a fixed
   cost, whatever the sample count. *)
let read t ~summaries =
  Mutex.lock t.lock;
  let latency = if summaries then Histogram.summarize t.latency else None in
  let iterations =
    if summaries then Histogram.summarize t.iterations else None
  in
  let prepare_s = t.prepare_s in
  let work_s = t.work_s in
  let commit_s = t.commit_s in
  Mutex.unlock t.lock;
  {
    requests = Atomic.get t.requests;
    converged = Atomic.get t.converged;
    failed = Atomic.get t.failed;
    rejected = Atomic.get t.rejected;
    faulted = Atomic.get t.faulted;
    fallback_used = Atomic.get t.fallback_used;
    deadline_exceeded = Atomic.get t.deadline_exceeded;
    cache_hits = 0;
    cache_misses = 0;
    diverged = Atomic.get t.diverged;
    breaker_skips = Atomic.get t.breaker_skips;
    retries = Atomic.get t.retries;
    retry_converged = Atomic.get t.retry_converged;
    session_requests = Atomic.get t.session_requests;
    session_warm = Atomic.get t.session_warm;
    library_hits = Atomic.get t.library_hits;
    seed_theta0_wins = Atomic.get t.seed_theta0_wins;
    seed_session_wins = Atomic.get t.seed_session_wins;
    seed_library_wins = Atomic.get t.seed_library_wins;
    seed_zero_wins = Atomic.get t.seed_zero_wins;
    seed_perturbed_wins = Atomic.get t.seed_perturbed_wins;
    timeouts = Atomic.get t.timeouts;
    disconnects = Atomic.get t.disconnects;
    journal_appends = Atomic.get t.journal_appends;
    journal_replays = Atomic.get t.journal_replays;
    retry_after_sheds = Atomic.get t.retry_after_sheds;
    busy_refusals = Atomic.get t.busy_refusals;
    prepare_s;
    work_s;
    commit_s;
    latency;
    iterations;
  }

let snapshot t = read t ~summaries:true

let counters t = read t ~summaries:false

(* serial fraction of the wave pipeline: prepare and commit run on the
   orchestrating domain, work is the pool phase *)
let serial_fraction s =
  let total = s.prepare_s +. s.work_s +. s.commit_s in
  if total > 0. then Some ((s.prepare_s +. s.commit_s) /. total) else None

let render s =
  let table =
    Table.create ~title:"service metrics" [ ("metric", Table.Left); ("value", Table.Right) ]
  in
  let int_row name v = Table.add_row table [ name; string_of_int v ] in
  int_row "requests" s.requests;
  int_row "converged" s.converged;
  int_row "failed" s.failed;
  int_row "rejected" s.rejected;
  int_row "faulted" s.faulted;
  int_row "fallback used" s.fallback_used;
  int_row "deadline exceeded" s.deadline_exceeded;
  int_row "diverged" s.diverged;
  int_row "breaker skips" s.breaker_skips;
  int_row "retries" s.retries;
  int_row "retry converged" s.retry_converged;
  let warm_lookups = s.session_requests in
  Table.add_row table
    [
      "session warm";
      (if warm_lookups = 0 then "0"
       else
         Printf.sprintf "%d/%d (%.1f%%)" s.session_warm warm_lookups
           (100. *. float_of_int s.session_warm /. float_of_int warm_lookups));
    ];
  int_row "library hits" s.library_hits;
  int_row "seed wins (theta0)" s.seed_theta0_wins;
  int_row "seed wins (session)" s.seed_session_wins;
  int_row "seed wins (library)" s.seed_library_wins;
  int_row "seed wins (zero)" s.seed_zero_wins;
  int_row "seed wins (perturbed)" s.seed_perturbed_wins;
  int_row "timeouts" s.timeouts;
  int_row "disconnects" s.disconnects;
  int_row "journal appends" s.journal_appends;
  int_row "journal replays" s.journal_replays;
  int_row "retry-after sheds" s.retry_after_sheds;
  int_row "busy refusals" s.busy_refusals;
  Table.add_sep table;
  let phase_ms name v =
    Table.add_row table [ name; Printf.sprintf "%.3f ms" (1e3 *. v) ]
  in
  phase_ms "phase prepare" s.prepare_s;
  phase_ms "phase work" s.work_s;
  phase_ms "phase commit" s.commit_s;
  Table.add_row table
    [
      "serial fraction";
      (match serial_fraction s with
      | None -> "n/a"
      | Some f -> Printf.sprintf "%.1f%%" (100. *. f));
    ];
  Table.add_sep table;
  (match s.latency with
  | None -> Table.add_row table [ "latency"; "no samples" ]
  | Some l ->
    let ms name v = Table.add_row table [ name; Printf.sprintf "%.3f ms" (1e3 *. v) ] in
    ms "latency mean" l.Histogram.mean;
    ms "latency p50" l.Histogram.p50;
    ms "latency p95" l.Histogram.p95;
    ms "latency p99" l.Histogram.p99;
    ms "latency max" l.Histogram.max);
  (match s.iterations with
  | None -> Table.add_row table [ "iterations"; "no samples" ]
  | Some i ->
    let it name v = Table.add_row table [ name; Printf.sprintf "%.1f" v ] in
    it "iterations mean" i.Histogram.mean;
    it "iterations p50" i.Histogram.p50;
    it "iterations p95" i.Histogram.p95;
    it "iterations p99" i.Histogram.p99);
  Table.render table
