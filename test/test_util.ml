(* Unit and property tests for Dadu_util: Rng, Stats, Table, Csv, Counter,
   Domain_pool. *)

module Rng = Dadu_util.Rng
module Stats = Dadu_util.Stats
module Table = Dadu_util.Table
module Csv = Dadu_util.Csv
module Counter = Dadu_util.Counter
module Pool = Dadu_util.Domain_pool
module Trace = Dadu_util.Trace

let check_float = Alcotest.(check (float 1e-9))
let check_loose = Alcotest.(check (float 1e-2))

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in [0, 17)" true (x >= 0 && x < 17)
  done

let test_rng_int_covers () =
  let rng = Rng.create 4 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 5) <- true
  done;
  Array.iteri (fun i s -> Alcotest.(check bool) (Printf.sprintf "value %d seen" i) true s) seen

let test_rng_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (x >= 0. && x < 2.5)
  done

let test_rng_uniform_bounds () =
  let rng = Rng.create 6 in
  for _ = 1 to 10_000 do
    let x = Rng.uniform rng (-3.) 9. in
    Alcotest.(check bool) "in [-3, 9)" true (x >= -3. && x < 9.)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 8 in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian rng) in
  check_loose "mean ~ 0" 0. (Stats.mean samples);
  Alcotest.(check bool) "stddev ~ 1" true (Float.abs (Stats.stddev samples -. 1.) < 0.02)

let test_rng_shuffle_multiset () =
  let rng = Rng.create 9 in
  let a = Array.init 100 Fun.id in
  let b = Array.copy a in
  Rng.shuffle rng b;
  let b' = Array.copy b in
  Array.sort compare b';
  Alcotest.(check (array int)) "same elements" a b';
  Alcotest.(check bool) "actually permuted" true (b <> a)

let test_rng_split_independent () =
  let parent = Rng.create 10 in
  let child = Rng.split parent in
  let xs = Array.init 32 (fun _ -> Rng.bits64 parent) in
  let ys = Array.init 32 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create 11 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy resumes identically" (Rng.bits64 a) (Rng.bits64 b)

(* ---- Stats ---- *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_stddev () =
  check_float "sample stddev" (sqrt (14. /. 3.)) (Stats.stddev [| 1.; 2.; 3.; 6. |])

let test_stats_stddev_singleton () = check_float "singleton" 0. (Stats.stddev [| 5. |])

let test_stats_minmax () =
  check_float "min" (-2.) (Stats.min [| 3.; -2.; 7. |]);
  check_float "max" 7. (Stats.max [| 3.; -2.; 7. |])

let test_stats_median_odd () = check_float "odd median" 3. (Stats.median [| 5.; 3.; 1. |])

let test_stats_median_even () =
  check_float "even median" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |])

let test_stats_percentile_interp () =
  check_float "p25 interpolates" 1.75 (Stats.percentile 25. [| 1.; 2.; 3.; 4. |])

let test_stats_percentile_ends () =
  let xs = [| 9.; 1.; 5. |] in
  check_float "p0 = min" 1. (Stats.percentile 0. xs);
  check_float "p100 = max" 9. (Stats.percentile 100. xs)

let test_stats_percentile_range () =
  Alcotest.check_raises "p > 100 rejected"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile 101. [| 1. |]))

let test_stats_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (Stats.mean [||]))

let test_stats_geomean () = check_float "geomean" 2. (Stats.geomean [| 1.; 2.; 4. |])

let test_stats_geomean_nonpositive () =
  Alcotest.check_raises "non-positive rejected"
    (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [| 1.; 0. |]))

let test_stats_summary_order =
  QCheck.Test.make ~name:"summary statistics are ordered" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 50) (float_range (-1e3) 1e3))
    (fun xs ->
      let s = Stats.summarize xs in
      s.Stats.min <= s.Stats.p50 && s.Stats.p50 <= s.Stats.p95
      && s.Stats.p95 <= s.Stats.max
      && s.Stats.min <= s.Stats.mean +. 1e-9
      && s.Stats.mean <= s.Stats.max +. 1e-9)

(* ---- Table ---- *)

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "contains header" true
    (Astring.String.is_infix ~affix:"name" rendered);
  Alcotest.(check bool) "right-aligned value" true
    (Astring.String.is_infix ~affix:"|     1 |" rendered)

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_fmt () =
  Alcotest.(check string) "fixed" "3.14" (Table.fmt_float ~decimals:2 3.14159);
  Alcotest.(check string) "sig" "3.142" (Table.fmt_sig ~digits:4 3.14159)

(* ---- Csv ---- *)

let test_csv_escape_plain () = Alcotest.(check string) "plain" "abc" (Csv.escape "abc")

let test_csv_escape_comma () =
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b")

let test_csv_escape_quote () =
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_csv_row () =
  Alcotest.(check string) "row" "a,\"b,c\",d" (Csv.row_to_string [ "a"; "b,c"; "d" ])

let test_csv_write () =
  let path = Filename.temp_file "dadu" ".csv" in
  Csv.write path ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ];
  let ic = open_in path in
  let lines = List.init 3 (fun _ -> input_line ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string)) "contents" [ "x,y"; "1,2"; "3,4" ] lines

let test_table_separator () =
  let t = Table.create [ ("a", Table.Left) ] in
  Table.add_row t [ "x" ];
  Table.add_sep t;
  Table.add_row t [ "y" ];
  let rendered = Table.render t in
  (* header line + top/bottom + separator = 4 horizontal rules *)
  let rules =
    List.length
      (List.filter
         (fun l -> String.length l > 0 && l.[0] = '+')
         (String.split_on_char '\n' rendered))
  in
  Alcotest.(check int) "four rules" 4 rules

(* ---- Chart ---- *)

let test_chart_empty () =
  Alcotest.(check string) "empty" "" (Dadu_util.Chart.render [])

let test_chart_scaling () =
  let groups =
    [ { Dadu_util.Chart.label = "g"; bars = [ ("a", 100.); ("b", 50.); ("c", 0.) ] } ]
  in
  let rendered = Dadu_util.Chart.render ~width:10 groups in
  Alcotest.(check bool) "max bar full width" true
    (Astring.String.is_infix ~affix:"##########" rendered);
  Alcotest.(check bool) "half bar" true (Astring.String.is_infix ~affix:"##### 50" rendered);
  Alcotest.(check bool) "zero bar keeps value" true
    (Astring.String.is_infix ~affix:"| 0" rendered)

let test_chart_log_note () =
  let groups = [ { Dadu_util.Chart.label = "g"; bars = [ ("a", 10.) ] } ] in
  Alcotest.(check bool) "log footnote" true
    (Astring.String.is_infix ~affix:"log10"
       (Dadu_util.Chart.render ~log:true groups));
  Alcotest.(check bool) "no footnote when linear" false
    (Astring.String.is_infix ~affix:"log10" (Dadu_util.Chart.render groups))

let test_chart_log_compresses () =
  (* on a log scale, a 100x value difference gives much less than a 100x
     bar difference *)
  let groups =
    [ { Dadu_util.Chart.label = "g"; bars = [ ("big", 9999.); ("small", 99.) ] } ]
  in
  let rendered = Dadu_util.Chart.render ~width:40 ~log:true groups in
  let count_hashes line =
    String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 line
  in
  let lines = String.split_on_char '\n' rendered in
  let big = List.find (fun l -> Astring.String.is_infix ~affix:"big" l) lines in
  let small = List.find (fun l -> Astring.String.is_infix ~affix:"small" l) lines in
  Alcotest.(check int) "big is full" 40 (count_hashes big);
  Alcotest.(check int) "small is half (log ratio)" 20 (count_hashes small)

let test_chart_negative_clamped () =
  let groups = [ { Dadu_util.Chart.label = "g"; bars = [ ("neg", -5.); ("pos", 5.) ] } ] in
  let rendered = Dadu_util.Chart.render ~width:10 groups in
  Alcotest.(check bool) "negative shows empty bar" true
    (Astring.String.is_infix ~affix:"| -5" rendered)

(* ---- Counter ---- *)

let test_counter_basic () =
  let c = Counter.create () in
  Counter.add c "macs" 5;
  Counter.incr c "macs";
  Counter.incr c "loads";
  Alcotest.(check int) "macs" 6 (Counter.get c "macs");
  Alcotest.(check int) "loads" 1 (Counter.get c "loads");
  Alcotest.(check int) "unknown" 0 (Counter.get c "nothing")

let test_counter_reset () =
  let c = Counter.create () in
  Counter.add c "x" 3;
  Counter.reset c;
  Alcotest.(check int) "reset to zero" 0 (Counter.get c "x")

let test_counter_to_list () =
  let c = Counter.create () in
  Counter.add c "b" 2;
  Counter.add c "a" 1;
  Alcotest.(check (list (pair string int))) "sorted" [ ("a", 1); ("b", 2) ]
    (Counter.to_list c)

(* ---- Domain_pool ---- *)

let test_pool_covers_all_indices () =
  let pool = Pool.create 4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let n = 1000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Pool.parallel_for pool n (fun i -> Atomic.incr hits.(i));
  Array.iteri
    (fun i h -> Alcotest.(check int) (Printf.sprintf "index %d hit once" i) 1 (Atomic.get h))
    hits

let test_pool_map () =
  let pool = Pool.create 3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let result = Pool.map pool (fun i -> i * i) 50 in
  Alcotest.(check (array int)) "squares" (Array.init 50 (fun i -> i * i)) result

let test_pool_empty () =
  let pool = Pool.create 2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Pool.parallel_for pool 0 (fun _ -> Alcotest.fail "must not run");
  Alcotest.(check (array int)) "empty map" [||] (Pool.map pool Fun.id 0)

let test_pool_exception () =
  let pool = Pool.create 2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let raised =
    try
      Pool.parallel_for pool 10 (fun i -> if i = 3 then failwith "boom");
      false
    with Failure msg -> msg = "boom"
  in
  Alcotest.(check bool) "exception propagated" true raised;
  (* pool still usable afterwards *)
  Pool.parallel_for pool 4 ignore

let test_pool_reuse () =
  let pool = Pool.create 4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  for round = 1 to 20 do
    let acc = Atomic.make 0 in
    Pool.parallel_for pool 100 (fun _ -> Atomic.incr acc);
    Alcotest.(check int) (Printf.sprintf "round %d" round) 100 (Atomic.get acc)
  done

let test_pool_single_worker () =
  let pool = Pool.create 1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let result = Pool.map pool (fun i -> i + 1) 10 in
  Alcotest.(check (array int)) "caller-only pool" (Array.init 10 (fun i -> i + 1)) result

let test_pool_size () =
  let pool = Pool.create 5 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "size" 5 (Pool.size pool)

let test_pool_invalid () =
  Alcotest.check_raises "non-positive size"
    (Invalid_argument "Domain_pool.create: size must be positive") (fun () ->
      ignore (Pool.create 0))

(* The serving layer leans on long-lived pools: one pool, hundreds of
   parallel_for waves. Exercise that pattern far past the existing 20-round
   reuse test. *)
let test_pool_stress_reuse () =
  let pool = Pool.create (Pool.recommended_size ()) in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let rounds = 120 in
  for round = 1 to rounds do
    (* vary the trip count so waves of every shape (empty, smaller than the
       pool, much larger) hit the same pool *)
    let n = (round * 7) mod 97 in
    let acc = Atomic.make 0 in
    Pool.parallel_for pool n (fun i -> Atomic.fetch_and_add acc i |> ignore);
    Alcotest.(check int)
      (Printf.sprintf "round %d sum" round)
      (n * (n - 1) / 2)
      (Atomic.get acc)
  done

(* Back-to-back tiny dispatches: a worker still looping over the previous
   dispatch must never claim, or complete, a chunk of the next one.  Each
   item counts its runs; after every dispatch each of its items must have
   run exactly once (a lost completion hangs the caller instead, so the
   alarm's default action kills the run rather than stalling the suite). *)
let test_pool_dispatch_storm () =
  let dispatches = 500_000 in
  ignore (Unix.alarm 60);
  Fun.protect ~finally:(fun () -> ignore (Unix.alarm 0)) @@ fun () ->
  List.iter
    (fun size ->
      let pool = Pool.create size in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      let runs = Array.init 7 (fun _ -> Atomic.make 0) in
      let bad = ref 0 in
      for d = 0 to dispatches - 1 do
        let n = 1 + (d mod 7) in
        Pool.parallel_for pool n (fun i -> Atomic.incr runs.(i));
        for i = 0 to 6 do
          if Atomic.exchange runs.(i) 0 <> Bool.to_int (i < n) then incr bad
        done
      done;
      Alcotest.(check int)
        (Printf.sprintf "pool %d: items not run exactly once" size)
        0 !bad)
    [ 2; 4 ]

(* Force the failure into a worker domain (not the caller): the body raises
   only when it is NOT running on the domain that called parallel_for. *)
let test_pool_worker_exception_propagates () =
  let pool = Pool.create 4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let caller = Domain.self () in
  let raised_elsewhere = ref false in
  (* retry: work stealing means a tiny wave might be absorbed by the caller *)
  let attempts = ref 0 in
  while (not !raised_elsewhere) && !attempts < 50 do
    incr attempts;
    try
      Pool.parallel_for pool 64 (fun _ ->
          if Domain.self () <> caller then failwith "worker boom"
          else Unix.sleepf 1e-4)
    with Failure msg ->
      Alcotest.(check string) "worker exception re-raised in caller" "worker boom" msg;
      raised_elsewhere := true
  done;
  Alcotest.(check bool) "a worker raised within 50 waves" true !raised_elsewhere;
  (* and the pool still works afterwards *)
  let acc = Atomic.make 0 in
  Pool.parallel_for pool 32 (fun _ -> Atomic.incr acc);
  Alcotest.(check int) "pool survives worker failure" 32 (Atomic.get acc)

let test_pool_map_deterministic_at_recommended_size () =
  let pool = Pool.create (Pool.recommended_size ()) in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let f i = float_of_int (i * i) /. 7. in
  let expect = Array.init 257 f in
  for round = 1 to 100 do
    Alcotest.(check (array (float 0.)))
      (Printf.sprintf "round %d identical to serial" round)
      expect
      (Pool.map pool f 257)
  done

(* Grained dispatch must still cover every index exactly once, whatever
   the relation of grain to n: exact divisor, ragged tail, grain > n. *)
let test_pool_grain_covers_all_indices () =
  let pool = Pool.create 4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun (n, grain) ->
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.parallel_for ~grain pool n (fun i -> Atomic.incr hits.(i));
      Array.iteri
        (fun i h ->
          Alcotest.(check int)
            (Printf.sprintf "n=%d grain=%d index %d hit once" n grain i)
            1 (Atomic.get h))
        hits)
    [ (64, 8); (100, 7); (5, 64); (1, 1); (97, 97) ]

let test_pool_grain_invalid () =
  let pool = Pool.create 2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.check_raises "grain 0"
    (Invalid_argument "Domain_pool.parallel_for: grain must be positive")
    (fun () -> Pool.parallel_for ~grain:0 pool 4 ignore);
  Alcotest.check_raises "negative chunk count"
    (Invalid_argument "Domain_pool.parallel_for_chunks: negative count")
    (fun () -> Pool.parallel_for_chunks pool ~grain:2 (-1) (fun _ _ -> ()))

(* The chunk-level API hands out contiguous [lo, hi) ranges that partition
   [0, n) with hi - lo <= grain; collect them and check the partition. *)
let test_pool_chunk_shapes () =
  let pool = Pool.create 3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun (n, grain) ->
      let mutex = Mutex.create () in
      let chunks = ref [] in
      Pool.parallel_for_chunks pool ~grain n (fun lo hi ->
          Mutex.lock mutex;
          chunks := (lo, hi) :: !chunks;
          Mutex.unlock mutex);
      let sorted = List.sort compare !chunks in
      let expected_count = (n + grain - 1) / grain in
      Alcotest.(check int)
        (Printf.sprintf "n=%d grain=%d chunk count" n grain)
        expected_count (List.length sorted);
      let covered = ref 0 in
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check bool)
            (Printf.sprintf "chunk [%d,%d) well-formed" lo hi)
            true
            (lo = !covered && hi > lo && hi - lo <= grain && hi <= n);
          covered := hi)
        sorted;
      Alcotest.(check int) "partition reaches n" n !covered)
    [ (64, 16); (65, 16); (7, 3); (3, 8) ]

let test_pool_grain_exception_propagates () =
  let pool = Pool.create 4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check bool) "exception reaches caller" true
    (try
       Pool.parallel_for ~grain:8 pool 64 (fun i ->
           if i = 37 then failwith "boom");
       false
     with Failure _ -> true);
  (* pool still usable afterwards, grained or not *)
  let acc = Atomic.make 0 in
  Pool.parallel_for ~grain:4 pool 32 (fun _ -> Atomic.incr acc);
  Alcotest.(check int) "pool survives" 32 (Atomic.get acc)

(* Adversarial partitions.  The contiguous checks above only ever used
   tame grains; degenerate ones have their own failure modes: an empty
   range must deliver no chunk at all, grain 1 nothing but
   single-element chunks, and a grain near [max_int] one full-range
   chunk.  The task-count ceiling division used to compute
   [n + grain - 1], which wraps negative for huge grains and turned the
   whole dispatch into a silent no-op — zero chunks, zero coverage, no
   error. *)
let pool_chunk_partition ~pool n grain =
  let mutex = Mutex.create () in
  let chunks = ref [] in
  Pool.parallel_for_chunks pool ~grain n (fun lo hi ->
      Mutex.lock mutex;
      chunks := (lo, hi) :: !chunks;
      Mutex.unlock mutex);
  List.sort compare !chunks

(* no empty chunks, each within bounds and at most [grain] wide, and
   together they tile [0, n) in order without gaps or overlaps *)
let chunks_partition_exactly n grain sorted =
  let ok = ref true in
  let covered = ref 0 in
  List.iter
    (fun (lo, hi) ->
      if not (lo = !covered && hi > lo && hi - lo <= grain && hi <= n) then
        ok := false;
      covered := hi)
    sorted;
  !ok && !covered = n

let test_pool_chunk_adversarial () =
  let pool = Pool.create 4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun grain ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "grain %d delivers one full chunk" grain)
        [ (0, 7) ]
        (pool_chunk_partition ~pool 7 grain))
    [ max_int; max_int - 1; (max_int / 2) + 1; 8 ];
  Alcotest.(check (list (pair int int)))
    "grain 1 delivers singletons"
    (List.init 9 (fun i -> (i, i + 1)))
    (pool_chunk_partition ~pool 9 1);
  List.iter
    (fun grain ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "n=0 grain=%d delivers nothing" grain)
        []
        (pool_chunk_partition ~pool 0 grain))
    [ 1; max_int ]

let test_pool_chunk_partition_property =
  QCheck.Test.make ~name:"chunks partition [0,n) for adversarial grains"
    ~count:50
    (QCheck.make
       ~print:(fun (n, grain) -> Printf.sprintf "n=%d grain=%d" n grain)
       QCheck.Gen.(
         pair (int_range 0 200)
           (oneof
              [
                int_range 1 3;
                int_range 1 250;
                return ((max_int / 2) + 1);
                return (max_int - 1);
                return max_int;
              ])))
    (fun (n, grain) ->
      let pool = Pool.create 2 in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      chunks_partition_exactly n grain (pool_chunk_partition ~pool n grain))

(* ---- Histogram ---- *)

module Histogram = Dadu_util.Histogram

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check bool) "no summary" true (Histogram.summarize h = None);
  Alcotest.check_raises "percentile on empty"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Histogram.percentile h 50.))

let test_histogram_percentiles () =
  let h = Histogram.create ~initial_capacity:2 () in
  (* insertion order deliberately scrambled; growth forced past capacity 2 *)
  List.iter (Histogram.add h) [ 5.; 1.; 3.; 2.; 4. ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check (float 1e-12)) "p0" 1. (Histogram.percentile h 0.);
  Alcotest.(check (float 1e-12)) "p50" 3. (Histogram.percentile h 50.);
  Alcotest.(check (float 1e-12)) "p100" 5. (Histogram.percentile h 100.);
  match Histogram.summarize h with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
    Alcotest.(check int) "n" 5 s.Histogram.n;
    Alcotest.(check (float 1e-12)) "mean" 3. s.Histogram.mean;
    Alcotest.(check (float 1e-12)) "min" 1. s.Histogram.min;
    Alcotest.(check (float 1e-12)) "max" 5. s.Histogram.max;
    Alcotest.(check bool) "ordered" true
      (s.Histogram.p50 <= s.Histogram.p95 && s.Histogram.p95 <= s.Histogram.p99)

let test_histogram_rejects_nonfinite () =
  let h = Histogram.create () in
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Histogram.add: non-finite sample") (fun () ->
      Histogram.add h Float.nan);
  Alcotest.check_raises "inf rejected"
    (Invalid_argument "Histogram.add: non-finite sample") (fun () ->
      Histogram.add h Float.infinity);
  Alcotest.(check int) "nothing recorded" 0 (Histogram.count h)

let test_histogram_clear () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1.; 2.; 3. ];
  Histogram.clear h;
  Alcotest.(check int) "cleared" 0 (Histogram.count h);
  Histogram.add h 9.;
  Alcotest.(check (array (float 0.))) "usable after clear" [| 9. |]
    (Histogram.to_array h)

let test_histogram_matches_stats =
  QCheck.Test.make ~name:"histogram percentiles match Stats on the same samples"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range (-1e3) 1e3))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let arr = Array.of_list samples in
      List.for_all
        (fun p ->
          Float.abs
            (Histogram.percentile h p -. Dadu_util.Stats.percentile p arr)
          < 1e-9)
        [ 0.; 25.; 50.; 95.; 99.; 100. ])

let qcheck = QCheck_alcotest.to_alcotest

(* ---- Json (benchmark harness serialization) ---- *)

module Json = Dadu_util.Json

let test_json_roundtrip_sample () =
  let v =
    Json.Obj
      [ ("schema", Json.Num 1.);
        ("benchmarks",
          Json.List
            [ Json.Obj
                [ ("name", Json.Str "quickik-seq-dof12");
                  ("dof", Json.Num 12.);
                  ("ns_per_iter", Json.Num 48321.75);
                  ("words_per_iter", Json.Num 0.) ] ]);
        ("ok", Json.Bool true);
        ("note", Json.Null) ]
  in
  match Json.of_string (Json.to_string v) with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')

let test_json_number_forms () =
  Alcotest.(check string) "integer form" "12" (Json.to_string (Json.Num 12.));
  Alcotest.(check string) "negative zero stays a number" "-0"
    (Json.to_string (Json.Num (-0.)));
  (* %.17g round-trips every finite double *)
  let x = 0.1 +. 0.2 in
  (match Json.of_string (Json.to_string (Json.Num x)) with
  | Ok (Json.Num y) ->
    Alcotest.(check bool) "bit exact" true
      (Int64.bits_of_float x = Int64.bits_of_float y)
  | _ -> Alcotest.fail "number did not reparse");
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Json.to_string: nan/infinity are not representable")
    (fun () -> ignore (Json.to_string (Json.Num Float.nan)))

let test_json_string_escapes () =
  let s = "line\n\ttab \"quote\" back\\slash" in
  match Json.of_string (Json.to_string (Json.Str s)) with
  | Ok (Json.Str s') -> Alcotest.(check string) "escape round trip" s s'
  | Ok _ | Error _ -> Alcotest.fail "string did not reparse"

let test_json_parse_whitespace_and_unicode () =
  (match Json.of_string " { \"a\" : [ 1 , 2.5 , true , null ] } " with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Num 1.; Json.Num 2.5; Json.Bool true; Json.Null ]) ]) -> ()
  | Ok v -> Alcotest.failf "unexpected parse: %s" (Json.to_string v)
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  match Json.of_string {|"Aé"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9" s
  | Ok _ | Error _ -> Alcotest.fail "unicode string did not reparse"

let test_json_errors () =
  let is_error s =
    match Json.of_string s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (is_error "{} x");
  Alcotest.(check bool) "unterminated string" true (is_error "\"abc");
  Alcotest.(check bool) "bare word" true (is_error "quux");
  Alcotest.(check bool) "missing colon" true (is_error "{\"a\" 1}");
  Alcotest.(check bool) "empty input" true (is_error "")

let test_json_accessors () =
  let v = Json.Obj [ ("x", Json.Num 3.5); ("s", Json.Str "hi") ] in
  Alcotest.(check (option (float 0.))) "member+to_float" (Some 3.5)
    (Option.bind (Json.member "x" v) Json.to_float);
  Alcotest.(check (option string)) "member+to_str" (Some "hi")
    (Option.bind (Json.member "s" v) Json.to_str);
  Alcotest.(check bool) "missing member" true (Json.member "nope" v = None);
  Alcotest.(check bool) "to_list on non-list" true (Json.to_list v = None)

let test_json_file_roundtrip () =
  let path = Filename.temp_file "dadu_json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let v = Json.Obj [ ("k", Json.List [ Json.Num 1.; Json.Str "two" ]) ] in
      Json.write_file path v;
      match Json.read_file path with
      | Ok v' -> Alcotest.(check bool) "file round trip" true (v = v')
      | Error msg -> Alcotest.failf "read_file: %s" msg)

let json_value_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun x -> Json.Num x) (float_range (-1e6) 1e6);
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 12)) ]
  in
  let value =
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then scalar
            else
              frequency
                [ (2, scalar);
                  (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2))));
                  (1,
                    map
                      (fun kvs -> Json.Obj kvs)
                      (list_size (int_range 0 4)
                         (pair (string_size ~gen:printable (int_range 1 6)) (self (n / 2))))) ])
          n)
  in
  QCheck.make value

let test_json_roundtrip_property =
  QCheck.Test.make ~name:"Json to_string |> of_string round-trips" ~count:200
    json_value_gen
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

(* ---- Trace (monotone clock + span recorder) ---- *)

let test_trace_now_monotone () =
  let prev = ref (Trace.now_s ()) in
  for _ = 1 to 10_000 do
    let t = Trace.now_s () in
    if t < !prev then Alcotest.failf "clock ran backwards: %.9f < %.9f" t !prev;
    prev := t
  done

let test_trace_record_and_sort () =
  let t = Trace.create () in
  let base = Trace.now_s () in
  (* recorded out of order on purpose: spans sorts by (request, start, phase) *)
  Trace.record t ~request:1 ~phase:"commit" ~start_s:(base +. 2.) ~dur_s:0.1 ();
  Trace.record t ~request:0 ~phase:"solve"
    ~attrs:[ ("solver", "quick-ik") ]
    ~start_s:(base +. 1.) ~dur_s:0.5 ();
  Trace.record t ~request:1 ~phase:"prepare" ~start_s:base ~dur_s:0.0 ();
  Trace.record t ~request:0 ~phase:"prepare" ~start_s:base ~dur_s:0.0 ();
  Alcotest.(check int) "length" 4 (Trace.length t);
  let spans = Trace.spans t in
  Alcotest.(check (list (pair int string)))
    "sorted by request then start"
    [ (0, "prepare"); (0, "solve"); (1, "prepare"); (1, "commit") ]
    (List.map (fun (s : Trace.span) -> (s.Trace.request, s.Trace.phase)) spans);
  let solve = List.nth spans 1 in
  Alcotest.(check (option string)) "attrs survive" (Some "quick-ik")
    (List.assoc_opt "solver" solve.Trace.attrs);
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check bool) "start offsets non-negative" true (s.Trace.start_s >= 0.))
    spans

let test_trace_negative_clamped () =
  let t = Trace.create () in
  (* a start before the trace's epoch clamps to 0, a negative duration to 0 *)
  Trace.record t ~request:0 ~phase:"weird" ~start_s:(-5.) ~dur_s:(-1.) ();
  match Trace.spans t with
  | [ s ] ->
    Alcotest.(check (float 0.)) "start clamped" 0. s.Trace.start_s;
    Alcotest.(check (float 0.)) "duration clamped" 0. s.Trace.dur_s
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

let test_trace_jsonl () =
  let t = Trace.create () in
  let base = Trace.now_s () in
  Trace.record t ~request:0 ~phase:"solve"
    ~attrs:[ ("solver", "dls"); ("cache_hit", "true") ]
    ~start_s:base ~dur_s:1.25e-3 ();
  Trace.record t ~request:1 ~phase:"prepare" ~start_s:(base +. 1e-6) ~dur_s:0. ();
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl t) |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per span" 2 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error msg -> Alcotest.failf "line %S is not JSON: %s" line msg
      | Ok json ->
        Alcotest.(check bool) "request present" true (Json.member "request" json <> None);
        Alcotest.(check bool) "dur_s present" true (Json.member "dur_s" json <> None))
    lines;
  (match Json.of_string (List.hd lines) with
  | Ok json ->
    Alcotest.(check (option string)) "attr exported" (Some "dls")
      (Option.bind (Json.member "solver" json) Json.to_str);
    Alcotest.(check (option (float 1e-12))) "duration rounded to ns" (Some 1.25e-3)
      (Option.bind (Json.member "dur_s" json) Json.to_float)
  | Error msg -> Alcotest.fail msg);
  (* write_jsonl round-trips through a file *)
  let path = Filename.temp_file "dadu_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.write_jsonl t path;
  let content = In_channel.with_open_text path In_channel.input_all in
  Alcotest.(check string) "file matches to_jsonl" (Trace.to_jsonl t) content

let test_trace_concurrent_records () =
  let t = Trace.create () in
  let per_domain = 500 in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              let s = Trace.now_s () in
              Trace.record t ~request:d ~phase:(Printf.sprintf "p%d" i) ~start_s:s
                ~dur_s:0. ()
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no record lost" (4 * per_domain) (Trace.length t);
  let spans = Trace.spans t in
  Alcotest.(check int) "spans returns them all" (4 * per_domain) (List.length spans);
  (* per-request start times are non-decreasing: now_s is monotone across
     domains and spans sorts by start within a request *)
  let last = Array.make 4 0. in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.start_s < last.(s.Trace.request) then
        Alcotest.fail "span starts not sorted within a request";
      last.(s.Trace.request) <- s.Trace.start_s)
    spans

(* ---- Fault (seeded, site-scoped injection) ---- *)

module Fault = Dadu_util.Fault

let consult ?(n = 64) t site =
  List.init n (fun i -> Fault.fires t ~site ~iteration:i ())

let firing = Alcotest.(list (option (float 0.)))

let test_fault_disabled_noop () =
  Alcotest.(check bool) "disabled" false (Fault.enabled Fault.disabled);
  Alcotest.(check (option (float 0.))) "never fires" None
    (Fault.fires Fault.disabled ~site:"ssu-flip" ());
  Alcotest.(check int) "no consultations recorded" 0
    (Fault.consultations Fault.disabled ~site:"ssu-flip");
  Alcotest.(check bool) "fork of disabled is disabled" false
    (Fault.enabled (Fault.fork Fault.disabled 3));
  Alcotest.(check bool) "empty plan disarms" false (Fault.enabled (Fault.arm []))

let test_fault_arm_deterministic () =
  let plan = [ { Fault.site = "ssu-flip"; trigger = Fault.Prob 0.3; arg = 40. } ] in
  let a = Fault.arm ~seed:11 plan and b = Fault.arm ~seed:11 plan in
  Alcotest.check firing "equal seed, equal firing" (consult a "ssu-flip")
    (consult b "ssu-flip");
  let again = consult (Fault.arm ~seed:11 plan) "ssu-flip" in
  let other = consult (Fault.arm ~seed:12 plan) "ssu-flip" in
  Alcotest.(check bool) "different seed, different firing" true (again <> other);
  (* a Prob rule actually mixes hits and misses over 64 draws *)
  Alcotest.(check bool) "some fire" true (List.exists Option.is_some again);
  Alcotest.(check bool) "some don't" true (List.exists Option.is_none again)

let test_fault_fork_independence () =
  let plan = [ { Fault.site = "s"; trigger = Fault.Prob 0.5; arg = 1. } ] in
  let t = Fault.arm ~seed:7 plan in
  let f0 = consult (Fault.fork t 0) "s" and f1 = consult (Fault.fork t 1) "s" in
  Alcotest.(check bool) "forks draw from distinct streams" true (f0 <> f1);
  (* forking is a pure derivation: consuming one fork never perturbs
     another fork of the same registry *)
  Alcotest.check firing "re-fork replays" f0 (consult (Fault.fork t 0) "s")

let test_fault_trigger_semantics () =
  let plan =
    [
      { Fault.site = "a"; trigger = Fault.Always; arg = 1. };
      { Fault.site = "i"; trigger = Fault.At_iteration 3; arg = 2. };
      { Fault.site = "f"; trigger = Fault.From_iteration 5; arg = 3. };
      { Fault.site = "e"; trigger = Fault.Every 4; arg = 4. };
      { Fault.site = "n"; trigger = Fault.First 2; arg = 5. };
    ]
  in
  let t = Fault.arm ~seed:0 plan in
  let hits site =
    List.filter_map Fun.id (consult ~n:8 t site) |> List.length
  in
  Alcotest.(check int) "always: every consultation" 8 (hits "a");
  Alcotest.(check int) "at_iteration: exactly once" 1 (hits "i");
  Alcotest.(check int) "from_iteration: the tail" 3 (hits "f");
  Alcotest.(check int) "every: consultations 0,4" 2 (hits "e");
  Alcotest.(check int) "first: leading pair" 2 (hits "n");
  Alcotest.(check (option (float 0.))) "payload is the rule arg" (Some 1.)
    (Fault.fires t ~site:"a" ());
  Alcotest.(check int) "consultations tallied per site" 9
    (Fault.consultations t ~site:"a");
  Alcotest.(check int) "unconsulted site" 0 (Fault.consultations t ~site:"zz")

let test_fault_plan_roundtrip () =
  let text = "ssu-flip,prob=0.05,bit=40;sched-drop,every=100" in
  (match Fault.parse_plan text with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
    (match plan with
    | [ r1; r2 ] ->
      Alcotest.(check string) "site 1" "ssu-flip" r1.Fault.site;
      Alcotest.(check bool) "prob trigger" true (r1.Fault.trigger = Fault.Prob 0.05);
      check_float "bit= aliases arg=" 40. r1.Fault.arg;
      Alcotest.(check string) "site 2" "sched-drop" r2.Fault.site;
      Alcotest.(check bool) "every trigger" true (r2.Fault.trigger = Fault.Every 100)
    | _ -> Alcotest.failf "expected two rules, got %d" (List.length plan));
    match Fault.parse_plan (Fault.plan_to_string plan) with
    | Ok plan' -> Alcotest.(check bool) "plan_to_string round-trips" true (plan = plan')
    | Error e -> Alcotest.failf "re-parse failed: %s" e));
  let rejected s =
    match Fault.parse_plan s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "bad plan %S accepted" s
  in
  rejected "";
  rejected "site,wat=1";
  rejected "site,prob=1.5";
  rejected "site,every=0"

(* ---- Json.num (non-finite floats degrade to null) ---- *)

let test_json_num_nonfinite () =
  Alcotest.(check bool) "nan -> Null" true (Json.num Float.nan = Json.Null);
  Alcotest.(check bool) "inf -> Null" true (Json.num Float.infinity = Json.Null);
  Alcotest.(check bool) "-inf -> Null" true
    (Json.num Float.neg_infinity = Json.Null);
  Alcotest.(check bool) "finite -> Num" true (Json.num 1.5 = Json.Num 1.5);
  (* the emitted null survives a serialize/parse round trip *)
  let doc = Json.Obj [ ("latency", Json.num Float.nan); ("n", Json.num 3.) ] in
  (match Json.of_string (Json.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "round trip" true (doc = doc')
  | Error e -> Alcotest.fail e);
  (* a raw non-finite Num still fails loudly: num is the sanctioned door *)
  match Json.to_string (Json.Num Float.nan) with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "raw NaN serialized as %S" s

let () =
  Alcotest.run "dadu_util"
    [
      ( "json",
        [
          Alcotest.test_case "round trip sample" `Quick test_json_roundtrip_sample;
          Alcotest.test_case "number forms" `Quick test_json_number_forms;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "whitespace + unicode" `Quick
            test_json_parse_whitespace_and_unicode;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "file round trip" `Quick test_json_file_roundtrip;
          Alcotest.test_case "num degrades non-finite to null" `Quick
            test_json_num_nonfinite;
          qcheck test_json_roundtrip_property;
        ] );
      ( "fault",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_fault_disabled_noop;
          Alcotest.test_case "arm is seed-deterministic" `Quick
            test_fault_arm_deterministic;
          Alcotest.test_case "forks are independent" `Quick
            test_fault_fork_independence;
          Alcotest.test_case "trigger semantics" `Quick test_fault_trigger_semantics;
          Alcotest.test_case "plan parse/print round-trip" `Quick
            test_fault_plan_roundtrip;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "shuffle multiset" `Quick test_rng_shuffle_multiset;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "stddev singleton" `Quick test_stats_stddev_singleton;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "median odd" `Quick test_stats_median_odd;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interp;
          Alcotest.test_case "percentile endpoints" `Quick test_stats_percentile_ends;
          Alcotest.test_case "percentile range check" `Quick test_stats_percentile_range;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "geomean non-positive" `Quick test_stats_geomean_nonpositive;
          qcheck test_stats_summary_order;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "float formatting" `Quick test_table_fmt;
          Alcotest.test_case "separator" `Quick test_table_separator;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape plain" `Quick test_csv_escape_plain;
          Alcotest.test_case "escape comma" `Quick test_csv_escape_comma;
          Alcotest.test_case "escape quote" `Quick test_csv_escape_quote;
          Alcotest.test_case "row" `Quick test_csv_row;
          Alcotest.test_case "write file" `Quick test_csv_write;
        ] );
      ( "chart",
        [
          Alcotest.test_case "empty" `Quick test_chart_empty;
          Alcotest.test_case "scaling" `Quick test_chart_scaling;
          Alcotest.test_case "log footnote" `Quick test_chart_log_note;
          Alcotest.test_case "log compresses" `Quick test_chart_log_compresses;
          Alcotest.test_case "negative clamped" `Quick test_chart_negative_clamped;
        ] );
      ( "counter",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "reset" `Quick test_counter_reset;
          Alcotest.test_case "to_list sorted" `Quick test_counter_to_list;
        ] );
      ( "domain-pool",
        [
          Alcotest.test_case "covers all indices" `Quick test_pool_covers_all_indices;
          Alcotest.test_case "map" `Quick test_pool_map;
          Alcotest.test_case "empty" `Quick test_pool_empty;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "reuse across rounds" `Quick test_pool_reuse;
          Alcotest.test_case "single worker" `Quick test_pool_single_worker;
          Alcotest.test_case "size" `Quick test_pool_size;
          Alcotest.test_case "invalid size" `Quick test_pool_invalid;
          Alcotest.test_case "stress: 120 waves on one pool" `Slow
            test_pool_stress_reuse;
          Alcotest.test_case "worker exception propagates" `Slow
            test_pool_worker_exception_propagates;
          Alcotest.test_case "map deterministic at recommended size" `Slow
            test_pool_map_deterministic_at_recommended_size;
          Alcotest.test_case "grain covers all indices" `Quick
            test_pool_grain_covers_all_indices;
          Alcotest.test_case "grain validation" `Quick test_pool_grain_invalid;
          Alcotest.test_case "chunk shapes partition the range" `Quick
            test_pool_chunk_shapes;
          Alcotest.test_case "grained exception propagates" `Quick
            test_pool_grain_exception_propagates;
          Alcotest.test_case "adversarial grains" `Quick
            test_pool_chunk_adversarial;
          qcheck test_pool_chunk_partition_property;
          Alcotest.test_case "stress: 1M tiny dispatches, pools 2 and 4" `Slow
            test_pool_dispatch_storm;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "rejects non-finite" `Quick test_histogram_rejects_nonfinite;
          Alcotest.test_case "clear" `Quick test_histogram_clear;
          qcheck test_histogram_matches_stats;
        ] );
      ( "trace",
        [
          Alcotest.test_case "clock monotone" `Quick test_trace_now_monotone;
          Alcotest.test_case "record + sorted spans" `Quick test_trace_record_and_sort;
          Alcotest.test_case "negative times clamped" `Quick test_trace_negative_clamped;
          Alcotest.test_case "jsonl export" `Quick test_trace_jsonl;
          Alcotest.test_case "concurrent records" `Slow test_trace_concurrent_records;
        ] );
    ]
