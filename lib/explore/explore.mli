(** Design-space exploration: the multi-objective Pareto driver.

    The paper fixes the core-to-node mapping and minimizes one scalar
    cost.  This driver treats three axes the paper holds constant as free:

    - {b mapping} — which permutation of the core ids the application is
      placed under (Marcon et al.'s mapping degree of freedom; the grid
      floorplan and therefore every Eq. 1 link length follows the ids);
    - {b library subset} — which {e saver} primitives (gossip graphs,
      whose implementations use fewer links than the edges they cover) the
      decomposition may instantiate; neutral primitives are always
      available, so every subset still yields a valid decomposition;
    - {b bandwidth provisioning} — a scale factor on every physical
      link's capacity: wider links cut queueing latency but cost
      proportionally more area.

    Each design point runs the existing decompose → synthesize pipeline
    and is scored as an (energy, latency, area) vector ({!Pareto.vector});
    the non-dominated set is maintained incrementally and cross-checked
    against the exact O(n²) filter, and the front is summarized by its
    dominated hypervolume against a per-scenario reference point.

    Points are evaluated with sequential per-point search budgets (node
    budget only, no wall clock), so a point's vector is a pure function of
    (axes, ACG, index); sharding across domains reuses the work-stealing
    scheduler ({!Noc_core.Ws}) and cannot change the front. *)

type axes = {
  mappings : Noc_core.Mapping.t array;
      (** index 0 is always the identity; all [n!] permutations when that
          fits the cap, else identity + seeded random permutations *)
  subsets : (string * Noc_primitives.Library.t) array;
      (** label and library per subset choice, e.g. ["MGG4+G124"];
          index 0 is the full library *)
  bw_scales : float array;
      (** link-capacity multipliers, always [[| 0.5; 1.0; 2.0 |]]: under-,
          nominally- and over-provisioned *)
}

val axes :
  ?max_mappings:int ->
  ?max_subset_bits:int ->
  seed:int ->
  library:Noc_primitives.Library.t ->
  Noc_core.Acg.t ->
  axes
(** Builds the discrete design space of a scenario.  The mapping axis is
    every permutation of the core ids when [n! <= max_mappings] (default
    24), otherwise the identity plus [max_mappings - 1] distinct seeded
    random permutations.  The subset axis toggles each saver primitive of
    [library] independently (capped at the first [max_subset_bits]
    savers, default 4; neutral primitives are always retained), full
    library first, then masks in decreasing-cardinality binary order. *)

val space_size : axes -> int
(** [Array.length mappings * Array.length subsets * Array.length bw_scales]. *)

type point = {
  index : int;  (** mixed-radix index into the space: the design-point id *)
  mapping : int;  (** index into [axes.mappings] *)
  subset : int;  (** index into [axes.subsets] *)
  bw_scale : float;  (** the decoded [axes.bw_scales] value *)
  vec : Pareto.vector;
  cost : float;  (** decomposition cost (Edge_count) *)
  links : int;  (** physical links of the synthesized architecture *)
}

val default_budget : Noc_core.Branch_bound.Budget.t
(** Per-point search budget: 50k nodes, no wall clock, one domain — the
    no-timeout/sequential combination is what makes a point's evaluation
    deterministic (anytime truncation under a node budget is reproducible
    when the search is sequential). *)

val evaluate :
  ?tech:Noc_energy.Technology.t ->
  ?budget:Noc_core.Branch_bound.Budget.t ->
  axes ->
  Noc_core.Acg.t ->
  int ->
  point
(** Scores design point [index]: applies the mapping, decomposes under the
    subset library (Edge_count cost), glues the architecture, and computes

    - energy: Eq. 5 total communication energy on the id-ordered grid
      floorplan (180 nm unless [tech] overrides);
    - latency: volume-weighted mean over flows of the route's per-hop
      service (1 cycle) plus an M/M/1-style queueing term
      [u / (1 - u)] per link, where [u] is the link's aggregate bandwidth
      demand over its provisioned capacity
      [bw_scale * tech.link_bandwidth] (utilization capped at 0.95);
    - area: [bw_scale * (0.02 * Σ ports² + 0.01 * Σ link length_mm)] —
      quadratic crossbars plus wiring, both scaled by the provisioned
      width.

    [budget]'s [domains] is forced to 1 and its [timeout_s] dropped; see
    {!default_budget}.  @raise Invalid_argument if [index] is outside the
    space. *)

type result = {
  evaluated : point array;  (** ascending index order, whatever the shard *)
  front : point list;  (** canonical {!Pareto.compare_vector} order *)
  ref_point : Pareto.vector;
      (** {!Pareto.reference_point} over every evaluated vector *)
  hypervolume : float;
  space : int;  (** total design points in the axes *)
  steals : int;  (** work-stealing tasks migrated across domains *)
}

val run :
  ?observe:Noc_obs.Obs.t ->
  ?tech:Noc_energy.Technology.t ->
  ?budget:Noc_core.Branch_bound.Budget.t ->
  ?domains:int ->
  ?points:int ->
  seed:int ->
  axes ->
  Noc_core.Acg.t ->
  result
(** Evaluates [points] design points (default 64; [0] or anything at or
    above {!space_size} means full enumeration) sharded over [domains]
    workers (default 1).  When sampling, the index subset is drawn by a
    seeded shuffle of the whole space — a function of [seed] only, so the
    front is identical for any [domains].  The incremental front is
    cross-checked against {!Pareto.filter_reference} (assertion failure on
    divergence — that would be a bug, not an input problem).

    With an enabled observer: an [explore.evaluate] span around the
    sharded evaluation, counters [explore.points] and [explore.steals],
    gauges [explore.front_size] and [explore.hv]. *)

val to_json : ?name:string -> axes -> result -> Noc_obs.Obs.Json.t
(** One self-describing object: schema header, axes cardinalities, the
    reference point, hypervolume and the front (one object per point with
    its axes decoded — the mapping's image, the subset label, the scale). *)

val csv_header : string

val to_csv_rows : ?name:string -> axes -> result -> string list
(** One CSV row per front point, matching {!csv_header} ([scenario,index,
    mapping,subset,bw_scale,energy_pj,latency,area_mm2,cost,links]). *)
