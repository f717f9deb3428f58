type t = {
  name : string;
  feature_nm : int;
  voltage : float;
  frequency_mhz : float;
  es_bit : float;
  el_bit_per_mm : float;
  repeater_spacing_mm : float;
  e_repeater : float;
  e_buffer_pj_per_flit_cycle : float;
  router_clock_pj_per_port2_cycle : float;
  link_bandwidth : float;
  max_bisection_links : int;
}

let cmos_180nm =
  {
    name = "cmos-180nm";
    feature_nm = 180;
    voltage = 1.8;
    frequency_mhz = 100.0;
    es_bit = 1.2;
    el_bit_per_mm = 0.12;
    repeater_spacing_mm = 2.5;
    e_repeater = 0.18;
    e_buffer_pj_per_flit_cycle = 0.35;
    router_clock_pj_per_port2_cycle = 0.6;
    link_bandwidth = 3.2;
    max_bisection_links = 16;
  }

let cmos_130nm =
  {
    name = "cmos-130nm";
    feature_nm = 130;
    voltage = 1.3;
    frequency_mhz = 250.0;
    es_bit = 0.55;
    el_bit_per_mm = 0.06;
    repeater_spacing_mm = 1.8;
    e_repeater = 0.08;
    e_buffer_pj_per_flit_cycle = 0.16;
    router_clock_pj_per_port2_cycle = 0.27;
    link_bandwidth = 8.0;
    max_bisection_links = 24;
  }

let cmos_100nm =
  {
    name = "cmos-100nm";
    feature_nm = 100;
    voltage = 1.0;
    frequency_mhz = 500.0;
    es_bit = 0.24;
    el_bit_per_mm = 0.025;
    repeater_spacing_mm = 1.2;
    e_repeater = 0.035;
    e_buffer_pj_per_flit_cycle = 0.07;
    router_clock_pj_per_port2_cycle = 0.12;
    link_bandwidth = 16.0;
    max_bisection_links = 32;
  }

let presets = [ cmos_180nm; cmos_130nm; cmos_100nm ]

let link_energy_per_bit t ~length_mm =
  if length_mm < 0. then invalid_arg "Technology.link_energy_per_bit: negative length";
  let repeaters = int_of_float (length_mm /. t.repeater_spacing_mm) in
  (t.el_bit_per_mm *. length_mm) +. (float_of_int repeaters *. t.e_repeater)

let pp ppf t =
  Format.fprintf ppf "%s (%dnm, %.1fV, %.0fMHz, ES=%.2fpJ, EL=%.2fpJ/mm)" t.name
    t.feature_nm t.voltage t.frequency_mhz t.es_bit t.el_bit_per_mm
