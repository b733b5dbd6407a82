open Dadu_core

type kind =
  | Quick_ik
  | Jt_serial
  | Jt_buss
  | Jt_linesearch
  | Pinv
  | Dls
  | Sdls
  | Ccd

let all =
  [
    ("quick-ik", Quick_ik);
    ("jt-serial", Jt_serial);
    ("jt-buss", Jt_buss);
    ("jt-linesearch", Jt_linesearch);
    ("pinv", Pinv);
    ("dls", Dls);
    ("sdls", Sdls);
    ("ccd", Ccd);
  ]

let name kind = fst (List.find (fun (_, k) -> k = kind) all)

let of_string s =
  match List.assoc_opt (String.lowercase_ascii (String.trim s)) all with
  | Some k -> Ok k
  | None ->
    Error
      (Printf.sprintf "unknown solver %S (expected %s)" s
         (String.concat " | " (List.map fst all)))

let chain_of_string s =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest ->
      (match of_string part with
      | Ok k -> parse (k :: acc) rest
      | Error _ as e -> e)
  in
  match List.filter (fun p -> String.trim p <> "") (String.split_on_char ',' s) with
  | [] -> Error "empty solver chain"
  | parts -> parse [] parts

let chain_to_string chain = String.concat "," (List.map name chain)

(* Every dispatch reuses the calling domain's cached workspace for the
   problem's DOF, so service traffic (which fans problems out across
   scheduler domains) runs the solvers' zero-allocation paths instead of
   rebuilding scratch buffers per request.  Safe because each domain runs
   one solve at a time. *)
let solver ?(speculations = 64) kind ~config p =
  let workspace = Workspace.local ~dof:(Dadu_kinematics.Chain.dof p.Ik.chain) in
  match kind with
  | Quick_ik -> Dadu_core.Quick_ik.solve ~speculations ~workspace ~config p
  | Jt_serial -> Dadu_core.Jt_serial.solve ~workspace ~config p
  | Jt_buss -> Dadu_core.Jt_buss.solve ~workspace ~config p
  | Jt_linesearch -> Dadu_core.Jt_linesearch.solve ~workspace ~config p
  | Pinv -> Dadu_core.Pinv_svd.solve ~workspace ~config p
  | Dls -> Dadu_core.Dls.solve ~workspace ~config p
  | Sdls -> Dadu_core.Sdls.solve ~workspace ~config p
  | Ccd -> Dadu_core.Ccd.solve ~workspace ~config p

type outcome = {
  result : Ik.result;
  solver : kind;
  attempts : int;
  fallbacks : int;
  trail : (kind * Ik.status) list;
  elapsed_s : float;
}

(* Demote a claimed convergence that FK does not confirm; keeps the
   never-Converged-above-accuracy invariant independent of any individual
   solver's bookkeeping.  A non-finite true error (poisoned θ) is a
   malfunction, not a miss: demote to [Diverged] so the breaker sees it. *)
let verify ~config p (r : Ik.result) =
  match r.Ik.status with
  | Ik.Converged ->
    let actual = Ik.error_of p.Ik.chain p.Ik.target r.Ik.theta in
    if actual <= config.Ik.accuracy then r
    else if Float.is_finite actual then
      { r with Ik.status = Ik.Stalled; error = actual }
    else { r with Ik.status = Ik.Diverged; error = actual }
  | Ik.Max_iterations | Ik.Stalled | Ik.Diverged -> r

(* A crashed tier must not take the whole request down: stand in a
   best-effort result (the clamped initial pose, honestly scored) marked
   [Diverged] so the chain moves on and the breaker counts the crash. *)
let crashed ?(speculations = 64) (p : Ik.problem) =
  let theta = Dadu_kinematics.Chain.clamp_config p.Ik.chain p.Ik.theta0 in
  {
    Ik.theta;
    error = Ik.error_of p.Ik.chain p.Ik.target theta;
    iterations = 0;
    speculations;
    status = Ik.Diverged;
    svd_sweeps = 0;
  }

let run ?speculations ?time_budget_s ?attempt_hook
    ?(fault = Dadu_util.Fault.disabled) ~chain ~config p =
  if chain = [] then invalid_arg "Fallback.run: empty solver chain";
  let module Fault = Dadu_util.Fault in
  let now = Dadu_util.Trace.now_s in
  let t0 = now () in
  let elapsed () = now () -. t0 in
  let out_of_time () =
    match time_budget_s with None -> false | Some b -> elapsed () > b
  in
  let attempt kind =
    match Fault.fires fault ~site:"solver-raise" () with
    | Some _ -> failwith ("injected fault: " ^ name kind ^ " crashed")
    | None ->
      let r = solver ?speculations kind ~config p in
      let r =
        (* corrupt θ after the solve, like a scribbled result buffer *)
        match Fault.fires fault ~site:"solver-nan" () with
        | Some _ ->
          let theta = Dadu_linalg.Vec.copy r.Ik.theta in
          theta.(0) <- Float.nan;
          { r with Ik.theta }
        | None -> r
      in
      (* a lying tier claims success regardless of where θ landed; only
         the FK re-verification below catches it *)
      (match Fault.fires fault ~site:"solver-lie" () with
      | Some _ -> { r with Ik.status = Ik.Converged; error = 0. }
      | None -> r)
  in
  let rec go best attempts trail = function
    | kind :: rest ->
      let start_s = now () in
      let r =
        match attempt kind with
        | raw -> verify ~config p raw
        | exception _ -> crashed ?speculations p
      in
      (match attempt_hook with
      | None -> ()
      | Some hook -> hook kind ~start_s ~dur_s:(now () -. start_s) r);
      let attempts = attempts + 1 in
      let trail = (kind, r.Ik.status) :: trail in
      if r.Ik.status = Ik.Converged then (r, kind, attempts, trail)
      else begin
        (* keep the lowest-error attempt; ties go to the earlier solver,
           and a NaN-error attempt never displaces a finite one *)
        let best =
          match best with
          | None -> (r, kind)
          | Some (b, _) when r.Ik.error < b.Ik.error -> (r, kind)
          | Some _ as kept -> Option.get kept
        in
        if rest = [] || out_of_time () then
          let b, k = best in
          (b, k, attempts, trail)
        else go (Some best) attempts trail rest
      end
    | [] -> assert false (* chain checked non-empty; recursion stops above *)
  in
  let result, solver, attempts, trail = go None 0 [] chain in
  {
    result;
    solver;
    attempts;
    fallbacks = attempts - 1;
    trail = List.rev trail;
    elapsed_s = elapsed ();
  }
