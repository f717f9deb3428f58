(** Architecture synthesis: gluing the implementation graphs of a
    decomposition's matchings into the customized topology (Section 3,
    "after the decomposition step is completed, the communication primitives
    are replaced by their optimal implementations, and finally glued
    together"), plus the standard-mesh baseline used in Section 5.2.

    An architecture pairs a physical topology (a symmetric digraph over the
    ACG's cores: links are bidirectional) with one route per ACG flow. *)

type t = private {
  topology : Noc_graph.Digraph.t;
  routes : int list Noc_graph.Digraph.Edge_map.t;
      (** ACG edge (src, dst) -> vertex path [src; ...; dst] *)
  uniform_router_ports : int option;
      (** [Some p] when the architecture is built from identical [p]-port
          routers regardless of how many links each tile actually uses (the
          way regular-mesh prototypes are instantiated); [None] when every
          router has exactly the ports its links need (customized
          architectures) *)
}

val make : topology:Noc_graph.Digraph.t -> routes:int list Noc_graph.Digraph.Edge_map.t -> t
(** An architecture from explicit parts (for hand-built experiments and
    simulator tests), with per-link router radices
    ([uniform_router_ports = None]).  Topology is symmetrized; every route
    must connect its flow's endpoints over topology links.  Fault-degraded
    tables come from {!degrade}, which checks only what changed.
    @raise Invalid_argument on an invalid route. *)

val degrade :
  t ->
  topology:Noc_graph.Digraph.t ->
  patch:((int * int) * int list option) list ->
  t
(** [degrade t ~topology ~patch] is what [t] degrades to when only
    [topology] survives of its links and switches: [t]'s routes with each
    flow of [patch] rerouted ([Some path]) or removed ([None]), over
    [topology], with per-link router radices.  It costs the patch, not the
    table: [topology] must be a subgraph of [t]'s topology, symmetric
    (it is when whole links and switches fail), that every route outside
    [patch] still follows, and only the patched paths are checked.
    @raise Invalid_argument when a patched path does not connect its flow
    over [topology]. *)

val custom : Acg.t -> Decomposition.t -> t
(** Topology = union of each matching's implementation graph (transferred
    into ACG vertex names) plus one dedicated bidirectional link per
    remainder edge; routes come from the primitives' schedule-derived
    tables (remainder edges route directly).
    @raise Invalid_argument if some covered edge has no route — cannot
    happen for library primitives. *)

val mesh : rows:int -> cols:int -> Acg.t -> t
(** Standard mesh baseline with dimension-ordered XY routing.  Cores must
    be numbered row-major [1 .. rows*cols]; core [v] sits at row
    [(v-1)/cols], column [(v-1) mod cols].
    @raise Invalid_argument if the ACG mentions a vertex outside the
    grid. *)

val mesh_dims : Acg.t -> int * int
(** The near-square grid [(rows, cols)] over the ACG's largest core id
    [n]: [cols = ceil (sqrt n)] and [rows * cols >= n], so {!mesh} holds
    every core numbered from 1. *)

val link_count : t -> int
(** Physical (bidirectional) links. *)

val route : t -> src:int -> dst:int -> int list option

val next_hop : t -> node:int -> src:int -> dst:int -> int option
(** Routing-table view: where node [node] forwards a packet of flow
    [src -> dst].  [None] if the flow does not pass through [node] or
    terminates there. *)

val avg_hops : Acg.t -> t -> float
(** Volume-weighted average hop count over all flows. *)

val max_hops : t -> int
(** Longest route, in hops; 0 when there are no routes. *)

val link_load : Acg.t -> t -> float Noc_graph.Digraph.Edge_map.t
(** Aggregate bandwidth demand per directed physical link (Section 4.2's
    constraint: each link must carry the sum of the bandwidths of the flows
    routed over it). *)

val total_energy :
  tech:Noc_energy.Technology.t -> fp:Noc_energy.Floorplan.t -> Acg.t -> t -> float
(** Total communication energy (pJ): Eq. 1 applied to every flow's route,
    weighted by volume.  Works uniformly for customized and mesh
    architectures, enabling the Section 5.2 comparison. *)

val bisection_links : t -> int
(** Heuristic minimum number of physical links crossing a balanced
    bipartition of the topology.  The heuristic is seeded from the
    topology's links, so equal architectures always get equal counts. *)

val router_ports : t -> int -> int
(** Ports of one router: the uniform radix if fixed, otherwise topology
    degree + 1 local port. *)

val routes_valid : t -> bool
(** Every route follows existing physical links and connects its flow's
    endpoints. *)

val harden :
  tech:Noc_energy.Technology.t -> fp:Noc_energy.Floorplan.t -> t -> t * (int * int) list
(** Spare-link hardening against single-link failures: greedily adds the
    cheapest absent links (one-hop Eq. 1 bit energy over the floorplan,
    ties broken lexicographically — deterministic) until no single link
    removal can disconnect the endpoints of any routed flow, i.e. the
    architecture always offers a degraded path for rerouting.  Returns the
    hardened architecture (routes unchanged; [uniform_router_ports] drops
    to [None] when spares change router radices) and the spare links added
    (normalized [(min, max)], in insertion order) — empty when the
    architecture was already robust.  The floorplan must place every
    topology vertex. *)

val pp : Format.formatter -> t -> unit
