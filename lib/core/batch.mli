(** Batch solving: many independent IK problems at once.

    The paper's workload is 1 000 targets per configuration; a robot farm
    or an animation pipeline has the same shape.  Problems are independent,
    so they parallelize across domains at the *problem* level. *)

type summary = {
  results : Ik.result array;  (** one per problem, in input order *)
  converged : int;
  mean_iterations : float;
  mean_error : float;
  wall_clock_s : float;
}

val solve :
  ?pool:Dadu_util.Domain_pool.t ->
  solver:(Ik.problem -> Ik.result) ->
  Ik.problem array ->
  summary
(** With [pool], problems are distributed over the pool's domains; the
    [solver] closure is then called concurrently, which every solver in
    this library supports (each solve owns its workspace).  Results are
    positionally deterministic either way. *)
