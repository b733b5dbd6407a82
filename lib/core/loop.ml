module Ws = Workspace
open Dadu_linalg
open Dadu_kinematics

let all_finite v n =
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (Float.is_finite (Array.unsafe_get v i)) then ok := false
  done;
  !ok

let run ?(config = Ik.default_config) ?on_iteration ~workspace:ws ~speculations
    ~step (problem : Ik.problem) =
  let { Ik.chain; target; theta0 } = problem in
  let dof = Chain.dof chain in
  if Ws.dof ws <> dof then
    invalid_arg "Loop.run: workspace dof does not match the chain";
  let tx = target.Vec3.x and ty = target.Vec3.y and tz = target.Vec3.z in
  Vec.blit theta0 ws.Ws.theta;
  ws.Ws.scalars.Ws.best_err <- infinity;
  (* The loop state lives in local refs that no closure captures, so the
     compiler turns them into plain mutable locals and the driver
     allocates nothing but its result.  [explode_threshold] is set from
     the first iteration's error once, floored at the accuracy so a
     near-zero initial error cannot make the threshold untrippable by any
     finite value.  With [config.guard = None] no guard code runs, so
     unguarded traces — the paper experiments — cannot depend on it. *)
  let iter = ref 0 and sweeps = ref 0 in
  let stalled_for = ref 0 and exploded_for = ref 0 in
  let explode_threshold = ref infinity in
  let status = ref None in
  (* The error norm is computed inline (components straight out of the end
     frame) in the exact association order of [Vec3.norm (Vec3.sub ...)],
     which keeps every float unboxed without changing a bit of the trace.
     The termination checks run in a fixed order — guard, accuracy, cap,
     explosion, stall — pinned by the fresh-vs-reused workspace trace
     tests. *)
  while Option.is_none !status do
    let i = !iter in
    Fk.frames_into ~scratch:ws.Ws.fk ~dst:ws.Ws.frames chain ws.Ws.theta;
    let m = ws.Ws.frames.(dof) in
    let ex = tx -. m.(3) and ey = ty -. m.(7) and ez = tz -. m.(11) in
    ws.Ws.e.(0) <- ex;
    ws.Ws.e.(1) <- ey;
    ws.Ws.e.(2) <- ez;
    let err = sqrt (((ex *. ex) +. (ey *. ey)) +. (ez *. ez)) in
    ws.Ws.scalars.Ws.err <- err;
    ws.Ws.iter <- i;
    (match on_iteration with None -> () | Some f -> f ~iter:i ~err);
    match config.Ik.guard with
    | Some _ when not (Float.is_finite err && all_finite ws.Ws.theta dof) ->
      (* a NaN error compares false against every threshold below, so
         without this check the loop would spin the full iteration cap *)
      status := Some Ik.Diverged
    | Some _ | None ->
      if err < config.Ik.accuracy then status := Some Ik.Converged
      else if i >= config.Ik.max_iterations then
        status := Some Ik.Max_iterations
      else begin
        let exploded =
          match config.Ik.guard with
          | None -> 0
          | Some g ->
            if i = 0 then
              explode_threshold :=
                g.Ik.explode_factor *. Float.max err config.Ik.accuracy;
            if err > !explode_threshold then !exploded_for + 1 else 0
        in
        match config.Ik.guard with
        | Some g when exploded > 0 && exploded >= g.Ik.explode_patience ->
          status := Some Ik.Diverged
        | Some _ | None ->
          let best_err = ws.Ws.scalars.Ws.best_err in
          let improving = err < best_err -. 1e-15 in
          let stalled = if improving then 0 else !stalled_for + 1 in
          (match config.Ik.stall_iterations with
          | Some limit when stalled >= limit -> status := Some Ik.Stalled
          | Some _ | None ->
            if not (best_err <= err) then ws.Ws.scalars.Ws.best_err <- err;
            let used = step ws in
            let t = ws.Ws.theta in
            ws.Ws.theta <- ws.Ws.theta_next;
            ws.Ws.theta_next <- t;
            iter := i + 1;
            sweeps := !sweeps + used;
            stalled_for := stalled;
            exploded_for := exploded)
      end
  done;
  {
    Ik.theta = Vec.copy ws.Ws.theta;
    error = ws.Ws.scalars.Ws.err;
    iterations = !iter;
    speculations;
    status = Option.get !status;
    svd_sweeps = !sweeps;
  }
