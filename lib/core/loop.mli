(** Shared iteration driver for all IK solvers.

    Centralizes the termination contract (accuracy check, iteration cap,
    stall detection) so every solver counts iterations identically — the
    precondition for the paper's cross-method iteration comparisons.

    The driver owns the per-iteration state through a {!Workspace.t}: at
    the top of each iteration it refreshes [ws.frames] (via the
    workspace's FK scratch), the task-space error [ws.e], and the scalars
    [ws.scalars.err] / [ws.iter]; the step callback reads those, writes
    the next configuration into [ws.theta_next], and returns the SVD
    sweeps it consumed (0 if none).  The driver then pointer-swaps
    [theta]/[theta_next].  A step that keeps the configuration must copy
    [ws.theta] into [ws.theta_next] (e.g. [Vec.blit]).  With a
    well-behaved step the loop allocates nothing per iteration. *)

val run :
  ?config:Ik.config ->
  ?on_iteration:(iter:int -> err:float -> unit) ->
  workspace:Workspace.t ->
  speculations:int ->
  step:(Workspace.t -> int) ->
  Ik.problem ->
  Ik.result
(** Runs [step] until the error at the top of an iteration is below
    [config.accuracy], the cap is hit, or — when [stall_iterations] is set
    — the error has not improved for that many consecutive iterations.
    [Ik.result.iterations] is the number of [step] calls executed.

    When [config.guard] is set the driver additionally aborts with
    {!Ik.Diverged}: immediately on a non-finite error or configuration
    (checked at the top of every iteration, before the accuracy test —
    a NaN error compares false against every threshold, so the unguarded
    loop would otherwise spin the full cap), or once the error has
    exceeded [explode_factor × max initial-error accuracy] for
    [explode_patience] consecutive iterations.  With [guard = None]
    (the default) the guard code is never executed and every trace is
    bit-identical to the historical driver.

    The workspace [dof] must match the problem's chain.  [theta0] is
    copied in, and the result's [theta] is a fresh copy, so callers never
    alias workspace internals.

    [on_iteration] observes the error at the top of every iteration
    (including the final one that terminates the loop) — used by the
    convergence-profile experiment; it must not mutate solver state.
    (The call boxes [err], so allocation-sensitive callers pass [None].) *)
