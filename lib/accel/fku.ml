let chain_cycles (cfg : Config.t) ~dof =
  if dof <= 0 then invalid_arg "Fku.chain_cycles: dof must be positive";
  let fill = cfg.Config.dh_cycles + cfg.Config.matmul_cycles in
  let steady = Stdlib.max cfg.Config.dh_cycles cfg.Config.matmul_cycles in
  fill + ((dof - 1) * steady)
