(** Platform descriptions (the rows of the paper's Table 3).

    We cannot execute on the paper's Atom D2500 / Jetson TX1 testbed, so
    Tables 2–3 are regenerated from analytic models: measured iteration
    counts (from running our solvers) × modeled per-iteration time on each
    platform.  Frequencies, powers, technology nodes are the paper's
    reported values, used as given. *)

type t = {
  name : string;
  technology : string;
  frequency_hz : float;
  avg_power_w : float;
}

val atom : t
(** Intel Atom D2500: 32 nm, 1.86 GHz, 10 W (paper Table 3). *)

val tx1 : t
(** NVIDIA Jetson TX1: 20 nm, up to 1.9 GHz, 4.8 W average (paper
    Table 3). *)

val ikacc : t
(** IKAcc: 65 nm @ 1 V, 1 GHz, 158.6 mW (paper Table 3).  The detailed
    activity-based model lives in {!Dadu_accel.Energy}; this row carries
    the headline average for table rendering. *)

val energy : t -> time_s:float -> float
(** [avg_power_w × time_s] — how the paper computes Table 3 energies for
    the CPU/GPU rows. *)
