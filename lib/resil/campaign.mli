(** Resilience campaigns: sweep fault sets over a scenario and measure how
    gracefully the synthesized architecture degrades.

    Each run applies its fault set to the architecture before any traffic
    moves: {!Reroute.apply} keeps the routes the faults spare, moves the
    others to shortest surviving paths and reports the flows left without
    one.  One burst (one packet per surviving ACG flow) then runs to idle
    through the campaign's flit engine ({!Noc_sim.Engine}).  A campaign
    builds that engine once, on the fault-free architecture, and
    {!Noc_sim.Flitsim.reset}s it onto each degraded one, whose topology is
    a subgraph of the fault-free one: a burst pays for re-planning its
    rerouted flows, not for a new fabric, and runs exactly as it would on
    an engine built for the degraded architecture.  A disconnected flow
    counts as one dropped packet, and a surviving packet the burst does not
    deliver (a deadlock of the rerouted tables, or the cycle limit) as
    stranded, so a run is characterized by its delivered fraction, latency
    degradation versus the fault-free baseline, and the disconnected flow
    pairs.  The single-link sweep is exhaustive and doubles as a per-link
    criticality analysis; multi-link sweeps are sampled with a seeded
    PRNG.  Metrics flow through {!Noc_obs.Obs} ([resil.*] counters,
    per-scenario gauges). *)

type spec =
  | Single_link  (** exhaustive: one run per physical link *)
  | Multi_link of { links : int; samples : int }
      (** sampled: [samples] runs of [links] simultaneous failures *)
  | Fault_sets of Fault.t list list
      (** the given fault sets, switch failures included, one run each in
          order *)

type run_result = {
  faults : Fault.t list;
  injected : int;
  delivered : int;
  dropped : int;  (** one packet per flow the faults disconnected *)
  stranded : int;
      (** surviving packets the burst did not deliver: 0 unless the
          degraded tables deadlock or the run hits its cycle limit *)
  delivered_fraction : float;  (** delivered / injected; 1.0 for an empty burst *)
  avg_latency : float;  (** over delivered packets, cycles *)
  latency_factor : float;  (** avg_latency / fault-free avg_latency *)
  disconnected_pairs : int;  (** flows statically disconnected by the faults *)
  retries : int;  (** always 0: no packet is retransmitted *)
  cycles : int;  (** cycles until the burst drained (or gave up) *)
  engine_ok : bool;
      (** the burst drained cleanly: idle verdict (so every surviving
          packet was delivered) and flit conservation *)
}

type link_criticality = {
  link : int * int;
  delivered_fraction : float;
  latency_factor : float;
  disconnected_pairs : int;
}

type report = {
  scenario : string;
  baseline : run_result;  (** the fault-free run ([faults = []]) *)
  runs : run_result list;  (** one per fault set, in campaign order *)
  criticality : link_criticality list;
      (** single-link campaigns only: per-link impact, worst link first
          (by lost traffic, then latency, then link id) *)
  min_delivered_fraction : float;  (** worst run; 1.0 when there are no runs *)
  max_latency_factor : float;
  worst_disconnected_pairs : int;
  critical_links : int;
      (** runs that lost traffic or disconnected a pair — under
          [Single_link] exactly the number of critical links *)
  survives_all : bool;
      (** every run delivered every packet (fraction 1.0, nothing
          stranded) *)
  stranded_total : int;  (** must be 0: surviving packets that were never delivered *)
  engine_validated : bool;  (** every run, the baseline included, has [engine_ok] *)
}

val run :
  ?observe:Noc_obs.Obs.t ->
  ?validate_engine:Noc_sim.Engine.kind ->
  ?size_flits:int ->
  ?max_cycles:int ->
  name:string ->
  seed:int ->
  spec:spec ->
  Noc_core.Acg.t ->
  Noc_core.Synthesis.t ->
  report
(** Run the campaign for one scenario: a fault-free baseline burst, then
    one per fault set.  A burst degrades [arch] under its fault set
    ({!Reroute.apply}), then injects one packet of [size_flits] (default
    2) per surviving ACG flow, the kept flows first, and runs at most
    [max_cycles] (default 200_000) cycles.  [seed] drives multi-link
    sampling (the other specs are deterministic anyway);
    [validate_engine] names the preset of the campaign's engine (default
    {!Noc_sim.Engine.Coarse}, one lane: a reroute-induced deadlock
    strands packets instead of being masked by extra lanes).
    Deterministic: identical arguments give identical reports. *)

val pp_report : Format.formatter -> report -> unit
(** One-line human summary (scenario, runs, worst numbers, verdict). *)
