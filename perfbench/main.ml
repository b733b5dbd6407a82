(* perfbench: the serving benchmark.

     perfbench --workload track|plan --seed N --seconds S --trace 0|1
               --server PATH-TO-dadu

   drives `dadu serve -j 1` over a Unix socket with inputs generated from
   the seed, checks every reply, and prints the end-to-end metrics
   (--trace 0) or, after the same live run, the per-layer metrics of an
   in-process traced replay of the same inputs (--trace 1).  The last
   line of output is one JSON object; the exit code is 0 only when every
   check passed.  [--selftest] instead replays the inputs twice with the
   seed and once with the next seed, and checks that the counted
   numbers repeat and the inputs change.  METRICS.md describes every
   workload and metric. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let server = ref "_build/default/bin/dadu_cli.exe"
let selftest = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "track | plan");
    ("--seed", Arg.Set_int seed, "N  workload seed");
    ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
    ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ("--server", Arg.Set_string server, "PATH  the dadu executable");
    ("--selftest", Arg.Set selftest, " check that counted numbers repeat for one seed");
  ]

let json_metrics metrics =
  String.concat ","
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name
           (if Float.is_finite value then Printf.sprintf "%.17g" value else "null")
           unit)
       metrics)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, value, unit) -> Printf.printf "%-26s %14.6g %s\n" name value unit) metrics;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed (json_metrics metrics)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* The run's scratch directory.  Whatever way the run ends (normally, by
   an exception, or by a signal through [exit]) its servers are killed
   and the directory removed. *)
let with_run_dir f =
  let root = ".perfbench_run" in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      Live.kill_all ();
      remove_tree dir);
  f dir

(* ---- the live run's end-to-end metrics ---------------------------------- *)

let end_to_end (r : Live.result) =
  let t = r.Live.timed in
  let lat = Array.of_list (List.map snd t.Live.latency_ms) in
  let n = Array.length lat in
  (* completions per second of the timed phase: host drift shows here *)
  let secs = int_of_float (Float.ceil t.Live.elapsed_s) in
  let per_s = Array.make (max 1 secs) 0 in
  List.iter (fun d -> let i = int_of_float d in if i < secs then per_s.(i) <- per_s.(i) + 1) t.Live.done_s;
  Printf.printf "completions per second: %s\n"
    (String.concat " " (Array.to_list (Array.map string_of_int per_s)));
  let show xs = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") xs)) in
  Printf.printf "set-ups (s): %s; restarts (s): %s\n" (show r.Live.setup_s) (show r.Live.restart_s);
  Printf.printf "latency samples %d (%d beyond p99)\n" n (n - int_of_float (Float.ceil (0.99 *. float_of_int n)));
  [
    ("setup_s", Live.pct 50. r.Live.setup_s, "s");
    ("throughput_rps", float_of_int t.Live.completed /. t.Live.elapsed_s, "1/s");
    ("latency_p50_ms", Live.pct 50. lat, "ms");
    ("latency_p99_ms", Live.pct 99. lat, "ms");
    ("cpu_ms_per_req", 1e3 *. t.Live.server_cpu_s /. float_of_int (max 1 t.Live.completed), "ms");
    ("peak_rss_mb", t.Live.rss_mb, "MB");
    ("restart_s", Live.pct 50. r.Live.restart_s, "s");
  ]

let live_run dir =
  let exe = !server and seed = !seed and seconds = !seconds in
  match !workload with
  | "track" -> Live.track ~exe ~dir ~seed ~seconds ~keep:Replay.track_keep
  | "plan" -> Live.plan ~exe ~dir ~seed ~seconds
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

let () =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  if not (Sys.file_exists !server) then begin
    prerr_endline ("perfbench: no dadu executable at " ^ !server);
    exit 2
  end;
  if !selftest then
    exit (if with_run_dir (fun dir -> Replay.selftest ~workload:!workload ~seed:!seed ~exe:!server ~dir) then 0 else 1);
  let correct =
    with_run_dir @@ fun dir ->
    let r = live_run dir in
    let l = r.Live.ledger in
    let late = r.Live.timed.Live.late_ms in
    let failures = List.rev l.Live.failures in
    List.iteri (fun i f -> if i < 20 then Printf.printf "FAILED: %s\n" f) failures;
    let failed = List.length failures in
    Printf.printf
      "workload %s seed %d: %d attempted, %d failed, fail_frac %.6g, client send lateness p99 %.3f ms, max %.3f ms\n"
      !workload !seed l.Live.attempted failed
      (float_of_int failed /. float_of_int (max 1 l.Live.attempted))
      (Live.pct 99. late) (Live.pct 100. late);
    let replay_ok, metrics =
      if !trace = 0 then (true, end_to_end r)
      else Replay.per_layer ~workload:!workload ~seed:!seed ~dir ~exe:!server r
    in
    let correct = failed = 0 && replay_ok in
    print_result ~correct ~attempted:l.Live.attempted ~failed metrics;
    correct
  in
  exit (if correct then 0 else 1)
