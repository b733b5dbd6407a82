(* Workload inputs, generated from the benchmark seed.  The server only
   ever sees these frames; the same seed gives the same bytes.  Each
   input family draws from its own stream, keyed by (seed, salt), so
   for instance the plan library never coincides with the plan
   targets.  What the set-ups solve cold comes from fixed streams (seed
   0, salts no seed-drawn family uses), so set-up time does not depend
   on the seed. *)

open Dadu_linalg
open Dadu_kinematics
module Rng = Dadu_util.Rng

let stream seed salt = Rng.create (Hashtbl.hash (seed, salt))

let target_of rng chain = (Dadu_core.Ik.random_problem rng chain).Dadu_core.Ik.target

(* ---- track: trajectory sessions on eval:30 ---------------------------- *)

let track_dof = 30
let track_robot = Printf.sprintf "eval:%d" track_dof
let track_sessions = 128

(* The timed phase runs a fixed number of waypoints, [seconds] worth at
   this nominal rate (a constant, never a measured capacity), so every
   run does the same work: the server's memory grows with the requests
   it has served, and its peak RSS is then comparable between runs. *)
let track_nominal_rps = 6500.

let track_timed_waypoints ~seconds = int_of_float (Float.ceil (seconds *. track_nominal_rps))

(* waypoints per session that the restart leg runs before its kills:
   ~41k in all, a ~46 MB journal for every run's restarts to replay.
   Restart times on journals of a few hundred MB scattered by 30%
   between runs; on this size the restarts of one run agree within
   ~5%. *)
let track_restart_waypoints = 320

(* waypoints per session sent untimed before the timed phase: the first
   is the session's cold solve; the rest, about one period of the sweep,
   settle the session into the steady warm regime *)
let track_warmup = 16

(* The sweep (the session-dof bench's trajectory): waypoint [k] is the
   FK image of the joint-space sine sweep

     base + amp (sin (omega (k + phase)) - sin (omega phase)) dir

   around a well-conditioned posture [base], cyclic, with [amp] scaled
   so consecutive targets sit ~1.5 cm apart.  Waypoint 0, a session's
   cold solve, is the image of [base] itself.  The bases come from one
   fixed stream and the seed draws each session's direction and phase,
   so the set-up's cold solves are the same for every seed while the
   warm sweeps differ. *)
let track_omega = 0.35
let track_step_m = 0.015

type session = { base : float array; dir : float array; amp : float; phase : int }

let track_sessions_of seed =
  let bases = stream 0 "track-bases" in
  let rng = stream seed "track-sessions" in
  let chain = Robots.eval_chain ~dof:track_dof in
  Array.init track_sessions (fun _ ->
      let base = Array.init track_dof (fun _ -> 0.1 +. Rng.uniform bases (-0.05) 0.05) in
      let dir =
        Array.init track_dof (fun i ->
            (if i land 1 = 0 then 1.0 else -0.7) *. Rng.uniform rng 0.8 1.2)
      in
      (* the local Cartesian gain of the direction sets the amplitude *)
      let p0 = Fk.position chain base in
      let p1 = Fk.position chain (Array.mapi (fun i b -> b +. (0.01 *. dir.(i))) base) in
      let gain = Vec3.dist p0 p1 /. 0.01 in
      { base; dir; amp = track_step_m /. Float.max 1e-9 (gain *. track_omega);
        phase = Rng.int rng 18 })

let track_chain = lazy (Robots.eval_chain ~dof:track_dof)

let waypoint s k =
  let angle j = track_omega *. float_of_int j in
  let w = s.amp *. (sin (angle (k + s.phase)) -. sin (angle s.phase)) in
  Fk.position (Lazy.force track_chain) (Array.mapi (fun i b -> b +. (w *. s.dir.(i))) s.base)

(* track ids are a pure function of (session, waypoint index), so a live
   reply and its replayed twin share an id whatever the arrival order *)
let track_id ~session ~k = (k * track_sessions) + session

let session_name i = Printf.sprintf "s%03d" i

(* ---- plan: cold one-shot solves on eval:100 --------------------------- *)

let plan_dof = 100
let plan_robot = Printf.sprintf "eval:%d" plan_dof
let plan_library_postures = 4096
let plan_candidates = 4
let plan_window = 8
let plan_warmup = 16

(* the library's posture seed: derived from the benchmark seed but on a
   different stream from the targets *)
let plan_library_seed seed = Hashtbl.hash (seed, "plan-library")

(* the i-th plan target, drawn lazily: the closed loop decides how many
   it needs *)
let plan_targets seed =
  let rng = stream seed "plan-targets" in
  let chain = Robots.eval_chain ~dof:plan_dof in
  let drawn = ref [||] in
  fun i ->
    while Array.length !drawn <= i do
      drawn := Array.append !drawn (Array.init 256 (fun _ -> target_of rng chain))
    done;
    !drawn.(i)

(* the set-up's warm-up solves: fixed targets, on a stream of their own
   that no seed's timed targets use, so set-up time does not depend on
   which targets a seed drew *)
let plan_warmup_targets =
  lazy
    (let rng = stream 0 "plan-probe" in
     let chain = Robots.eval_chain ~dof:plan_dof in
     Array.init plan_warmup (fun _ -> target_of rng chain))

(* ---- wire payloads ---------------------------------------------------- *)

let solve_payload ~id ~robot (t : Vec3.t) =
  Printf.sprintf "{\"op\":\"solve\",\"id\":%d,\"robot\":%S,\"target\":[%.17g,%.17g,%.17g]}"
    id robot t.Vec3.x t.Vec3.y t.Vec3.z

let waypoint_payload ~id ~session ~seq (t : Vec3.t) =
  Printf.sprintf
    "{\"op\":\"waypoint\",\"id\":%d,\"session\":%S,\"seq\":%d,\"target\":[%.17g,%.17g,%.17g]}"
    id session seq t.Vec3.x t.Vec3.y t.Vec3.z

let open_payload ~id ~session ~robot =
  Printf.sprintf "{\"op\":\"open\",\"id\":%d,\"session\":%S,\"robot\":%S}" id session robot
