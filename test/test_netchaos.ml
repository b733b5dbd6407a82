(* Network chaos: an in-process server and the resilient client library
   connected over a real Unix socket, with seeded wire faults (net-cut /
   net-stall / net-garble / net-short-frame) injected on the server
   side, the client side, or both.  The invariants, per QCheck case:

   - every scripted op is answered exactly once (the client completes);
   - the solve-type dump is byte-identical to a fault-free reference
     run of the same script (sessions make replies a pure function of
     the waypoint sequence; resends are deduplicated by seq and
     answered from the per-session reply ring — DESIGN.md §16);
   - session waypoint ordinals come out contiguous, 0..K-1, no waypoint
     solved twice under a different ordinal. *)

open Dadu_service
module Json = Dadu_util.Json
module Fault = Dadu_util.Fault

let qcheck = QCheck_alcotest.to_alcotest

(* ---- harness ---- *)

let service_config =
  {
    Service.default_config with
    Service.max_iterations = 60;
    chunk = 8;
  }

let with_server ~net_fault f =
  let config =
    {
      Server.default_config with
      Server.service = service_config;
      net_fault;
      idle_timeout_s = None;
      frame_timeout_s = Some 1.0;
    }
  in
  let path = Filename.temp_file "dadu_chaos" ".sock" in
  Sys.remove path;
  let server = Server.create ~config () in
  let runner =
    match Server.bind (Server.Unix_sock path) with
    | Error reason -> Alcotest.failf "bind %s: %s" path reason
    | Ok listener -> Thread.create (fun () -> Server.run server listener) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join runner;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let connect path () =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Thread.delay 0.01;
      go ()
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)
  in
  go ()

let run_script ?(fault = Fault.disabled) ?(retries = 0) ~path ops =
  Client.run ~retries ~backoff_ms:1 ~seed:7 ~read_timeout_s:0.25 ~fault
    ~connect:(connect path) ops

(* ---- script generation ---- *)

(* a script: one session trajectory (open, K waypoints, close) plus an
   optional interleaved one-shot solve.  Targets vary by case so the
   reply bytes genuinely differ between scripts. *)
let script_of ~nwp ~with_solve ~jitter =
  let ops = ref [] in
  let push op = ops := op :: !ops in
  push (Problem_file.Open { session = "traj"; robot = "eval:8" });
  for i = 0 to nwp - 1 do
    if with_solve && i = nwp / 2 then
      push
        (Problem_file.Solve
           {
             robot = "eval:6";
             x = 2.0 +. jitter;
             y = 1.0;
             z = 0.5;
             theta0 = None;
             deadline_s = None;
           });
    push
      (Problem_file.Waypoint
         {
           session = "traj";
           x = 3.0;
           y = 1.0 +. (0.02 *. float_of_int i) +. jitter;
           z = 1.0;
         })
  done;
  push (Problem_file.Close { session = "traj" });
  Array.of_list (List.rev !ops)

let ordinal_of payload =
  match Json.of_string payload with
  | Error _ -> None
  | Ok j ->
    (match Option.bind (Json.member "session" j) Json.to_str with
    | Some _ ->
      Option.bind (Json.member "ordinal" j) (fun v ->
          Option.map int_of_float (Json.to_float v))
    | None -> None)

let check_case ~name ~nwp ~with_solve ~reference outcome =
  match outcome with
  | Error (Client.Connect msg) ->
    QCheck.Test.fail_reportf "%s: connect failed: %s" name msg
  | Error (Client.Unrecovered msg) ->
    QCheck.Test.fail_reportf "%s: retry budget exhausted: %s" name msg
  | Ok o ->
    let expect = nwp + if with_solve then 1 else 0 in
    if List.length o.Client.solves <> expect then
      QCheck.Test.fail_reportf "%s: %d solve replies, expected %d" name
        (List.length o.Client.solves)
        expect;
    if o.Client.solves <> reference then
      QCheck.Test.fail_reportf
        "%s: dump differs from fault-free reference\nfault: %s\nref:   %s" name
        (String.concat "\n" (List.map snd o.Client.solves))
        (String.concat "\n" (List.map snd reference));
    let ordinals =
      List.sort compare
        (List.filter_map (fun (_, p) -> ordinal_of p) o.Client.solves)
    in
    if ordinals <> List.init nwp Fun.id then
      QCheck.Test.fail_reportf "%s: ordinals not contiguous: [%s]" name
        (String.concat ";" (List.map string_of_int ordinals));
    true

(* fault plans: modest probabilities so every case converges well inside
   the retry budget, yet cuts/stalls/garbles/short frames all fire *)
let plan_of_pick = function
  | 0 -> "net-cut,prob=0.08"
  | 1 -> "net-stall,prob=0.15,arg=0.005"
  | 2 -> "net-garble,prob=0.06"
  | 3 -> "net-short-frame,prob=0.06"
  | 4 -> "net-cut,prob=0.05;net-stall,prob=0.1,arg=0.005"
  | _ -> "net-garble,prob=0.04;net-short-frame,prob=0.04"

let case_gen =
  QCheck.make
    QCheck.Gen.(
      let* nwp = int_range 2 4 in
      let* with_solve = bool in
      let* pick = int_range 0 5 in
      let* seed = int_range 0 10_000 in
      return (nwp, with_solve, pick, seed))

let arm pick seed =
  match Fault.parse_plan (plan_of_pick pick) with
  | Ok plan -> Fault.arm ~seed plan
  | Error msg -> failwith msg

(* every request admitted under wire faults gets exactly one well-formed
   reply, byte-identical to the fault-free run *)
let chaos_test ~name ~count ~server_side ~client_side =
  QCheck.Test.make ~name ~count case_gen (fun (nwp, with_solve, pick, seed) ->
      let jitter = float_of_int (seed mod 17) *. 1e-3 in
      let ops = script_of ~nwp ~with_solve ~jitter in
      let reference =
        with_server ~net_fault:Fault.disabled (fun path ->
            match run_script ~path ops with
            | Ok o -> o.Client.solves
            | Error _ -> QCheck.Test.fail_report "fault-free reference failed")
      in
      let net_fault = if server_side then arm pick seed else Fault.disabled in
      let cfault =
        if client_side then arm pick (seed + 1) else Fault.disabled
      in
      with_server ~net_fault (fun path ->
          check_case ~name ~nwp ~with_solve ~reference
            (run_script ~fault:cfault ~retries:100 ~path ops)))

let server_chaos =
  chaos_test ~name:"server-side wire faults" ~count:80 ~server_side:true
    ~client_side:false

let client_chaos =
  chaos_test ~name:"client-side wire faults" ~count:80 ~server_side:false
    ~client_side:true

let both_chaos =
  chaos_test ~name:"faults on both sides" ~count:40 ~server_side:true
    ~client_side:true

(* sanity: the fault-free path through the resilient client matches the
   plain single-pass behaviour (no reconnects, no overloads) *)
let test_fault_free_baseline () =
  let ops = script_of ~nwp:3 ~with_solve:true ~jitter:0. in
  with_server ~net_fault:Fault.disabled (fun path ->
      match run_script ~path ops with
      | Error _ -> Alcotest.fail "baseline run failed"
      | Ok o ->
        Alcotest.(check int) "solve replies" 4 (List.length o.Client.solves);
        Alcotest.(check int) "no reconnects" 0 o.Client.reconnects;
        Alcotest.(check int) "no overloads" 0 o.Client.overloaded)

let () =
  Alcotest.run "dadu_netchaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "fault-free baseline" `Quick
            test_fault_free_baseline;
          qcheck server_chaos;
          qcheck client_chaos;
          qcheck both_chaos;
        ] );
    ]
