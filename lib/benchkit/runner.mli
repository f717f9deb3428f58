(** Runs the benchmark corpus through the full synthesis flow.

    Each scenario goes decompose -> glue -> deadlock analysis -> burst
    simulation on the cycle-accurate flit engine (one 4-flit packet per
    flow) -> offered-load sweep (on the byte-serial [Flit] preset, whose
    serialization stalls and head-of-line blocking place the saturation
    knee) -> single-link fault campaign -> service-layer request mix, with
    per-stage [Noc_obs] spans (category ["bench"]) so a [--trace] of a
    bench run opens in Perfetto.
    Every seeded stage draws from seed 42; apart from wall-clock fields
    the results are deterministic, which is what makes the regression
    gate possible. *)

type settings = {
  budget : Noc_core.Branch_bound.Budget.t;
      (** per-scenario decomposition budget; its [domains] field is
          overridden by each entry of {!field-domains} *)
  domains : int list;  (** decompose once per domain count (scaling row) *)
  sweep_rates : float list;
  sweep_cycles : int;
  simulate : bool;
      (** run the engine burst, load sweep and fault campaign; the scale
          tiers turn this off — cycle-accurate simulation of a 1024-core
          run would swamp the search-scaling signal *)
  fallback : bool;  (** seed the search with the greedy anytime fallback *)
  serve : bool;
      (** run the service-layer stage: a 4-request mix (fresh, duplicate,
          two isomorphic permutations) through a fresh [nocsynthd] daemon,
          measuring requests/sec and cache hit rate; off in the scale
          tiers, where the extra search would swamp the scaling signal *)
  explore_points : int;
      (** design points of the Pareto-exploration stage
          ({!Noc_explore.Explore}); [0] skips the stage (the scale tiers —
          every point is itself a bounded search) *)
}

val full : settings
(** The persisted-record settings: domains [1; 2], 4 sweep rates, 1000
    injection cycles. *)

val smoke : settings
(** CI-gate settings: single domain, 2 sweep rates, 200 cycles — seconds
    for the whole corpus. *)

val scale : settings
(** Scaling-tier settings for [Corpus.scale]: 8 s / 2M-node anytime
    budgets with the greedy fallback, domains [1; 8], simulation stages
    skipped. *)

val scale_smoke : settings
(** CI scaling smoke ([@scale-smoke], [Corpus.scale_smoke]): sub-second
    budgets, domains [1; 2]. *)

type search_sample = {
  domains : int;
  wall_s : float;
  nodes : int;
  pruned : int;
  matches_tried : int;
  best_cost : float;
  timed_out : bool;
  nodes_per_sec : float;  (** nodes / wall_s — the search-throughput gauge *)
  speedup_vs_d1 : float;
      (** first sample's wall-clock / this sample's: >1 means the extra
          domains helped (the first sample is its own baseline, 1.0) *)
}

type sweep_sample = {
  rate : float;
  avg_latency : float;
  delivered : int;
  throughput : float;
}

type engine_sample = {
  engine : string;  (** "flit", the engine's {!Noc_sim.Engine.kind_name} *)
  e_status : string;  (** "idle", "deadlock" or "limit" *)
  e_cycles : int;
  e_latency : float;
  e_delivered : int;
  e_flit_hops : int;
  e_vc_truncated : bool;
      (** {!Noc_sim.Flitsim.vc_truncated}: fewer lanes than the static
          analysis prescribes, voiding the deadlock-freedom argument *)
}

type serve_sample = {
  serve_requests : int;  (** 9 when the stage ran, 0 when skipped *)
  serve_ok : int;  (** successful outcomes — 6 (4 wf mix + 2 admitted burst) *)
  serve_hits : int;
  serve_hit_rate : float;
      (** hits / ok — 5/6 exactly when canonicalization collapses the
          duplicate, both permuted copies and the admitted burst members
          onto the fresh miss *)
  serve_rps : float;  (** requests / wall-clock of the whole mix *)
  serve_byte_identical : bool;
      (** every successful response (hit or miss) returned exactly the
          first miss's bytes — vacuously [true] when the stage is
          skipped *)
  serve_errors : int;
      (** typed non-shed failures — 2 exactly (unknown library +
          dead-on-arrival deadline probes) *)
  serve_shed : int;  (** 1 exactly: the 3-request burst through 2 slots *)
  serve_error_rate : float;  (** errors / requests *)
  serve_shed_rate : float;  (** shed / requests *)
  serve_restore_ok : bool;
      (** snapshot -> cold daemon -> restore answered a duplicate from
          cache byte-identically *)
}

type explore_sample = {
  explore_space : int;  (** design points in the scenario's full space *)
  explore_points : int;  (** points actually evaluated (0 when skipped) *)
  front_size : int;  (** non-dominated points among those evaluated *)
  hypervolume : float;
      (** dominated hypervolume against the per-scenario reference point —
          with the front size, the gated exploration column *)
  explore_steals : int;
      (** work-stealing migrations during sharded evaluation —
          scheduling-dependent, informational only *)
}

type resilience_sample = {
  min_delivered_fraction : float;
      (** worst delivered/injected over the exhaustive single-link sweep *)
  max_latency_factor : float;  (** worst latency vs the fault-free baseline *)
  worst_disconnected_pairs : int;
  critical_links : int;  (** links whose loss strands traffic or a flow *)
  survives_single_link : bool;  (** every single-link run delivered 1.0 *)
  resil_stranded : int;  (** unclassified packets across the sweep — must be 0 *)
}

type result = {
  name : string;
  kind : string;
  cores : int;
  flows : int;
  total_volume : int;
  search : search_sample list;  (** one sample per requested domain count *)
  links : int;
  avg_hops : float;
  max_hops : int;
  energy_pj : float;  (** Eq. 5 energy on a grid floorplan, 180 nm *)
  deadlock_free : bool;
  vcs_needed : int;
  engines : engine_sample list;
      (** one burst row per preset, same one-packet-per-flow traffic;
          empty when [simulate] is off *)
  sweep : sweep_sample list;
  saturation_rate : float option;
  resilience : resilience_sample;
      (** exhaustive single-link fault campaign ({!Noc_resil.Campaign}) *)
  serve : serve_sample;
      (** service-layer request mix through {!Noc_serve.Daemon} — the
          requests/sec and cache-hit-rate bench columns *)
  explore : explore_sample;
      (** Pareto-exploration stage ({!Noc_explore.Explore.run} over the
          scenario's mapping x library-subset x bandwidth space) — the
          front-size and hypervolume bench columns *)
}

val run :
  ?observe:Noc_obs.Obs.t ->
  ?library:Noc_primitives.Library.t ->
  settings:settings ->
  Corpus.scenario ->
  result

val engine_row : result -> string -> engine_sample option
(** The burst row of the named preset, if it ran. *)

val pp_header : Format.formatter -> unit -> unit
val pp_row : Format.formatter -> result -> unit
