type t = {
  name : string;
  technology : string;
  frequency_hz : float;
  avg_power_w : float;
}

let atom =
  { name = "Intel Atom"; technology = "32nm"; frequency_hz = 1.86e9; avg_power_w = 10.0 }

let tx1 =
  { name = "Nvidia TX1"; technology = "20nm"; frequency_hz = 1.9e9; avg_power_w = 4.8 }

let ikacc =
  { name = "IKAcc"; technology = "65nm 1.1V"; frequency_hz = 1e9; avg_power_w = 0.1586 }

let energy t ~time_s = t.avg_power_w *. time_s
