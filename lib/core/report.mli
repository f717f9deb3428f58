(** Human-readable synthesis reports.

    Gathers one flow's full outcome — decomposition listing, architecture
    summary, per-primitive usage, constraint checks, deadlock analysis and
    energy figures — into a single text block for CLI output and logs. *)

type t = {
  acg_cores : int;
  acg_flows : int;
  total_volume : int;
  listing : string;  (** the paper-format decomposition listing with cost *)
  histogram : (string * int) list;
  remainder_edges : int;
  links : int;
  max_hops : int;
  avg_hops : float;
  deadlock_free : bool;
  vcs_needed : int;
  violations : string list;  (** pretty-printed constraint violations *)
  energy_pj : float option;  (** Eq. 5 energy when a floorplan is given *)
  search : Branch_bound.stats;
}

val build :
  ?tech:Noc_energy.Technology.t ->
  ?fp:Noc_energy.Floorplan.t ->
  ?constraints:Constraints.t ->
  cost:Cost.t ->
  acg:Acg.t ->
  decomposition:Decomposition.t ->
  stats:Branch_bound.stats ->
  unit ->
  t
(** Synthesizes the architecture internally; energy is reported when both
    [tech] and [fp] are supplied, constraint violations when [constraints]
    is. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val to_json : t -> Noc_obs.Obs.Json.t
(** The report as one JSON object ([search] nests
    {!Branch_bound.stats_to_json}); what [nocsynth --metrics] prints. *)
