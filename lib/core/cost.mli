(** Cost functions for matchings and decompositions (Section 4.3).

    Two costs are provided:

    - {!Edge_count} is the abstract wiring cost visible in the paper's
      printed outputs (Fig. 2's "cost 16", the AES run's "COST: 28"): a
      matching costs the number of physical links of its implementation
      graph, the remainder costs one dedicated link per remaining directed
      edge.  It is independent of vertex roles and of the floorplan.

    - {!Energy} is Eq. 5: the energy of transporting each covered ACG
      edge's volume along its route in the implementation graph, with bit
      energies from Eq. 1 and link lengths from the floorplan.  The
      remainder is charged as dedicated point-to-point links. *)

type t =
  | Edge_count
  | Energy of { tech : Noc_energy.Technology.t; fp : Noc_energy.Floorplan.t }

val remainder_cost : t -> Acg.t -> Noc_graph.Digraph.t -> float
(** Cost of leaving [remaining] uncovered: [Edge_count] counts its directed
    edges; [Energy] charges each edge volume × (2 routers + the direct
    link), the sum of {!edge_remainder_cost} over its edges. *)

val remainder_cost_view : t -> Acg.t -> Noc_graph.Compact.view -> float
(** {!remainder_cost} evaluated directly on a CSR remainder view (original
    vertex ids), avoiding the digraph materialization in the search's hot
    path. *)

val route_cost : t -> Acg.t -> src:int -> dst:int -> int list -> float
(** Cost of transporting the ACG edge [src -> dst] along a vertex path in
    ACG coordinates ([Edge_count] gives 0; link counting is handled at the
    matching level). *)

val lower_bound_view :
  t -> Acg.t -> min_link_ratio:float -> Noc_graph.Compact.view -> float
(** An admissible lower bound on the cost of decomposing the CSR remainder
    view [remaining], the sum of {!edge_lower_bound} over its edges —
    used to prune branches (Section 4.4: "the current cost of a
    decomposition and the minimum possible cost decomposing the remaining
    graph").

    [Edge_count]: every directed edge needs at least [min_link_ratio]
    links, where the caller supplies the smallest links-per-covered-edge
    ratio over the library (and 1 for the remainder option is never
    smaller, so the bound holds).  [Energy]: each edge costs at least its
    volume × (2 routers + wire at direct Manhattan length, without
    repeaters) — any route visits ≥ 2 routers and, by the triangle
    inequality for Manhattan distance, total wire ≥ direct distance. *)

val edge_remainder_cost : t -> Acg.t -> int -> int -> float
(** [edge_remainder_cost cost acg u v] is the single edge [u -> v]'s
    contribution to {!remainder_cost}: both functions are sums of
    independent per-edge terms, so the search can maintain a remainder cost
    incrementally under edge deletion (subtract the deleted edges'
    contributions) instead of re-folding the whole view at every node. *)

val edge_lower_bound : t -> Acg.t -> min_link_ratio:float -> int -> int -> float
(** The single-edge contribution to {!lower_bound_view}, for the same
    incremental maintenance. *)

val min_link_ratio_of_library : Noc_primitives.Library.t -> float
(** min over entries of implementation links / representation edges,
    capped at 1.0 (the remainder realizes any edge with one link). *)
