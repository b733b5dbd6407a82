open Dadu_core

type report = {
  result : Ik.result;
  config : Config.t;
  speculations : int;
  schedules_per_iteration : int;
  cycles_per_iteration : int;
  total_cycles : int;
  time_s : float;
  energy : Energy.breakdown;
  ssu_utilization : float;
}

let accounting config ~dof ~speculations ~iterations =
  let cycles_per_iteration = Scheduler.iteration_cycles config ~dof ~speculations in
  let total_cycles = iterations * cycles_per_iteration in
  let spu_busy = iterations * Spu.iteration_cycles config ~dof in
  let ssu_busy = iterations * Scheduler.ssu_busy_cycles config ~dof ~speculations in
  let energy =
    Energy.of_activity config ~total_cycles ~spu_busy_cycles:spu_busy
      ~ssu_busy_cycles:ssu_busy
  in
  let capacity = config.Config.num_ssus * total_cycles in
  let utilization = if capacity = 0 then 0. else float_of_int ssu_busy /. float_of_int capacity in
  (cycles_per_iteration, total_cycles, energy, utilization)

let time_for_iterations ?(config = Config.default) ~dof ~speculations ~iterations () =
  let cycles = iterations * Scheduler.iteration_cycles config ~dof ~speculations in
  float_of_int cycles /. config.Config.frequency_hz

let solve ?(config = Config.default) ?ik_config ?(speculations = 64) problem =
  Config.validate config;
  let result =
    Quick_ik.solve ~speculations ~strategy:Quick_ik.Uniform ?config:ik_config
      problem
  in
  let dof = Dadu_kinematics.Chain.dof problem.Ik.chain in
  let cycles_per_iteration, total_cycles, energy, ssu_utilization =
    accounting config ~dof ~speculations ~iterations:result.Ik.iterations
  in
  {
    result;
    config;
    speculations;
    schedules_per_iteration = (Scheduler.plan config ~speculations).Scheduler.schedules;
    cycles_per_iteration;
    total_cycles;
    time_s = float_of_int total_cycles /. config.Config.frequency_hz;
    energy;
    ssu_utilization;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>IKAcc: %a@,%d speculations, %d schedules/iter, %d cycles/iter@,%.4g ms, %a, SSU util %.0f%%@]"
    Ik.pp_result r.result r.speculations r.schedules_per_iteration
    r.cycles_per_iteration (r.time_s *. 1e3) Energy.pp r.energy
    (100. *. r.ssu_utilization)
