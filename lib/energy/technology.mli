(** Process-technology parameters for the bit-energy model.

    Section 3 of the paper: "ES_bit values for different process
    technologies, voltage levels, operating frequencies are also stored in
    the library", and EL_bit is stored {e per unit length} so that actual
    link energies can be derived from floorplan distances, "taking the
    repeaters into account".

    The presets below are representative of published NoC energy numbers of
    the paper's era (Hu & Marculescu DATE'03, Ye/Benini/De Micheli); they
    set the scale, while all comparisons in the experiments are ratios that
    do not depend on the absolute calibration. *)

type t = {
  name : string;
  feature_nm : int;  (** process feature size, nm *)
  voltage : float;  (** supply voltage, V *)
  frequency_mhz : float;  (** nominal network clock *)
  es_bit : float;  (** switch traversal energy per bit, pJ *)
  el_bit_per_mm : float;  (** link energy per bit per mm, pJ/mm *)
  repeater_spacing_mm : float;  (** one repeater inserted every this many mm *)
  e_repeater : float;  (** repeater energy per bit, pJ *)
  e_buffer_pj_per_flit_cycle : float;
      (** energy burned per buffered flit per cycle it waits in a router
          queue (FIFO retention + re-arbitration) *)
  router_clock_pj_per_port2_cycle : float;
      (** clocked overhead of a router per cycle and per squared port count
          (crossbar + arbiter complexity grows quadratically with radix,
          as in the Orion router power models), charged whether or not a
          flit moves *)
  link_bandwidth : float;  (** capacity of one link, Gbit/s *)
  max_bisection_links : int;
      (** wiring-resource limit: how many links the technology lets cross
          the die bisection (global-metal budget, Section 4.2) *)
}

val cmos_180nm : t
val cmos_130nm : t
val cmos_100nm : t

val presets : t list

val link_energy_per_bit : t -> length_mm:float -> float
(** EL_bit for a physical link of the given length, pJ, including
    repeaters: [el_bit_per_mm * length + floor(length / spacing) *
    e_repeater]. *)

val pp : Format.formatter -> t -> unit
