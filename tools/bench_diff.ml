(* Benchmark regression gate.

   Usage: bench_diff [--words-only] [--threshold PCT] OLD.json NEW.json

   Compares two BENCH_quickik.json files (schema 1) benchmark-by-benchmark
   and exits 1 if any gated metric regressed.  A metric regresses when

     new > old * (1 + threshold) + floor

   with threshold 15% by default.  Floors absorb quantization noise near
   zero: ns_per_iter has floor 0 (values are tens of microseconds), while
   words_per_iter has floor 8 so a legitimately zero-allocation kernel is
   allowed measurement jitter of a couple of boxed words but not a real
   per-iteration allocation.  --words-only gates only words_per_iter —
   allocation counts are deterministic across machines, wall-clock is not,
   so this is the mode CI uses against the committed baseline.

   Exit-code contract (relied on by CI and test/cram/bench_diff.t):

     0  every gated metric within the noise band ("ok"), improved beyond
        it ("GOOD" — the run nags to refresh the stale baseline but does
        not fail), or present only in NEW ("new", ungated: a benchmark
        gains a gate the first time it lands in the committed baseline);
     1  at least one gated metric regressed past the threshold, or a
        baseline benchmark is missing from NEW — a rename or deletion
        must be accompanied by a deliberate baseline refresh;
     2  usage or input error: bad flags, unreadable/unparseable JSON,
        wrong schema, or an entry without the gated numeric field.

   A file may name the clone of the filtered sweep that ran
   ("sweep_isa", from Fk.sweep_isa).  When OLD and NEW name different
   ones, a "note" line says so first, whatever the exit code: an ns jump
   between an AVX-512 host and an AVX2-only runner is then read as a
   change of clone, not of code. *)

module Json = Dadu_util.Json

type metric = { field : string; floor : float }

let all_metrics =
  [ { field = "ns_per_iter"; floor = 0. }; { field = "words_per_iter"; floor = 8. } ]

let words_metrics = [ { field = "words_per_iter"; floor = 8. } ]

(* Gated only when the BASELINE entry carries the field: a benchmark
   grows such a gate the moment its baseline records the metric, without
   forcing the field onto every entry.  Once the baseline has it, NEW
   must too — dropping the field is a gate-evading rename (exit 2, same
   as any missing gated field).  iters_per_waypoint (session temporal
   warm-starting) is iteration counts, deterministic across machines, so
   it stays gated even under --words-only; its floor of 1 iteration
   absorbs convergence jitter near the 1-2 iteration steady state. *)
let optional_metrics = [ { field = "iters_per_waypoint"; floor = 1. } ]

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let load path =
  match Json.read_file path with
  | Error msg -> die "%s: %s" path msg
  | Ok json ->
    (match Json.member "schema" json with
    | Some (Json.Num 1.) -> ()
    | _ -> die "%s: unsupported or missing schema (want 1)" path);
    let isa = Option.bind (Json.member "sweep_isa" json) Json.to_str in
    match Json.member "benchmarks" json with
    | Some (Json.List benchmarks) ->
      ( isa,
        List.map
          (fun b ->
            match Json.member "name" b with
            | Some (Json.Str name) -> (name, b)
            | _ -> die "%s: benchmark entry without a name" path)
          benchmarks )
    | _ -> die "%s: no benchmarks array" path

let metric_value path name b field =
  match Option.bind (Json.member field b) Json.to_float with
  | Some x -> x
  | None -> die "%s: benchmark %s has no numeric %s" path name field

let () =
  let words_only = ref false in
  let threshold = ref 15. in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--words-only" :: rest ->
      words_only := true;
      parse rest
    | "--threshold" :: pct :: rest ->
      (match float_of_string_opt pct with
      | Some x when x >= 0. -> threshold := x
      | _ -> die "--threshold wants a non-negative percentage, got %S" pct);
      parse rest
    | "--threshold" :: [] -> die "--threshold wants a value"
    | arg :: rest ->
      positional := arg :: !positional;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let old_path, new_path =
    match List.rev !positional with
    | [ o; n ] -> (o, n)
    | _ ->
      die "usage: bench_diff [--words-only] [--threshold PCT] OLD.json NEW.json"
  in
  let old_isa, old_benchmarks = load old_path in
  let new_isa, new_benchmarks = load new_path in
  (match (old_isa, new_isa) with
  | Some o, Some n when o <> n ->
    Printf.printf
      "note %s ran the %s sweep clone, %s the %s one: ns moves with the clone\n"
      old_path o new_path n
  | _ -> ());
  let metrics = if !words_only then words_metrics else all_metrics in
  let ratio = 1. +. (!threshold /. 100.) in
  let regressions = ref 0 in
  let improvements = ref 0 in
  List.iter
    (fun (name, old_b) ->
      match List.assoc_opt name new_benchmarks with
      | None ->
        incr regressions;
        Printf.printf "FAIL %-24s missing from %s\n" name new_path
      | Some new_b ->
        let metrics =
          metrics
          @ List.filter
              (fun { field; _ } -> Json.member field old_b <> None)
              optional_metrics
        in
        List.iter
          (fun { field; floor } ->
            let ov = metric_value old_path name old_b field in
            let nv = metric_value new_path name new_b field in
            let limit = (ov *. ratio) +. floor in
            let delta = if ov = 0. then 0. else (nv -. ov) /. ov *. 100. in
            if nv > limit then begin
              incr regressions;
              Printf.printf
                "FAIL %-24s %-14s %12.2f -> %12.2f  (%+.1f%%, limit %.2f)\n"
                name field ov nv delta limit
            end
            else if nv < (ov /. ratio) -. floor then begin
              (* mirrored bound: an improvement as far outside the noise
                 band as a gated regression would be — the baseline is
                 stale and undersells the current code *)
              incr improvements;
              Printf.printf
                "GOOD %-24s %-14s %12.2f -> %12.2f  (%+.1f%%)\n"
                name field ov nv delta
            end
            else
              Printf.printf
                "ok   %-24s %-14s %12.2f -> %12.2f  (%+.1f%%)\n"
                name field ov nv delta)
          metrics)
    old_benchmarks;
  List.iter
    (fun (name, _) ->
      if List.assoc_opt name old_benchmarks = None then
        Printf.printf "new  %-24s not in %s (ungated)\n" name old_path)
    new_benchmarks;
  if !improvements > 0 then
    Printf.printf
      "%d improvement(s) beyond %.0f%% — refresh the baseline (make \
       bench-json) to lock them in\n"
      !improvements !threshold;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s) beyond %.0f%% threshold\n" !regressions
      !threshold;
    exit 1
  end
  else Printf.printf "no regressions (threshold %.0f%%)\n" !threshold
