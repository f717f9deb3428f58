(** Measurement of simulation runs: the §5.2 metrics.

    Latency is measured per packet from injection to tail delivery;
    throughput over the makespan; energy from the flit engine's activity
    counters ({!Flitsim.link_flits}, {!Flitsim.switch_flits},
    {!Flitsim.buffer_flit_cycles}) using the same bit-energy technology
    model as the synthesis cost function, which is how the paper's XPower
    measurement is reproduced. *)

type summary = {
  packets : int;
  flits : int;
  avg_latency : float;  (** cycles, injection to delivery *)
  min_latency : int;
  max_latency : int;
  avg_hops : float;
  makespan : int;  (** cycles from first injection to last delivery *)
  throughput : float;  (** delivered flits per cycle over the makespan *)
}

val summarize : Packet.delivery list -> summary
(** Summary of a delivery batch; all-zero summary for []. *)

val dynamic_energy_pj :
  tech:Noc_energy.Technology.t -> fp:Noc_energy.Floorplan.t -> Flitsim.t -> float
(** Activity-based dynamic energy: every flit a switch moves (onto a link
    or into its sink) costs [flit_bits * es_bit]; every flit crossing a
    link costs [flit_bits * EL_bit(link length)] with the length from the
    floorplan.  A flit over an [h]-hop route thus pays Eq. 1's
    [(h + 1) * ES_bit + sum EL_bit] per bit. *)

val buffer_energy_pj : tech:Noc_energy.Technology.t -> Flitsim.t -> float
(** Buffer-retention energy: flit-cycles of VOQ occupancy times the
    technology's per-flit-cycle buffer cost.  Congested architectures pay
    this; an architecture matched to its traffic barely queues. *)

val clock_energy_pj : tech:Noc_energy.Technology.t -> Flitsim.t -> float
(** Clocked router overhead: elapsed cycles × Σ over routers of (ports²) ×
    the technology's per-port²-cycle cost.  Crossbars and arbiters grow
    quadratically with radix (Orion-style), so a mesh of identical 5-port
    routers burns more per cycle than degree-matched customized routers —
    and a faster architecture additionally finishes sooner. *)

val total_energy_pj :
  tech:Noc_energy.Technology.t -> fp:Noc_energy.Floorplan.t -> Flitsim.t -> float
(** Dynamic + buffer + clocked energy: the quantity compared against the
    paper's per-block XPower energy measurements. *)

val avg_power_mw :
  tech:Noc_energy.Technology.t -> fp:Noc_energy.Floorplan.t -> Flitsim.t -> float
(** Total energy divided by elapsed time at the technology's clock.  0
    before any cycle has elapsed. *)

val energy_metrics :
  tech:Noc_energy.Technology.t ->
  fp:Noc_energy.Floorplan.t ->
  Flitsim.t ->
  (string * float) list
(** The four energy components plus [avg_power_mw], as named metrics (what
    [nocsynth simulate --metrics] merges with {!Flitsim.metrics}). *)

val summary_metrics : summary -> (string * float) list
(** The summary record as named metrics, in declaration order. *)
