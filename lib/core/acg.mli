(** Application Characterization Graph (Section 4).

    Vertices are cores (the application is assumed already mapped), a
    directed edge [i -> j] means core [i] sends data to core [j], annotated
    with the communication volume [v(e)] (bits) and the required bandwidth
    [b(e)] (Gbit/s). *)

type t = private {
  graph : Noc_graph.Digraph.t;
  volume : int Noc_graph.Digraph.Edge_map.t;
  bandwidth : float Noc_graph.Digraph.Edge_map.t;
}

val make :
  graph:Noc_graph.Digraph.t ->
  ?volume:int Noc_graph.Digraph.Edge_map.t ->
  ?bandwidth:float Noc_graph.Digraph.Edge_map.t ->
  unit ->
  t
(** Attributes default to volume 1 and bandwidth 0 for edges missing from
    the maps; entries for non-edges are rejected.
    @raise Invalid_argument if an attribute key is not an edge of [graph]. *)

val of_weighted_edges : (int * int * int * float) list -> t
(** [(src, dst, volume, bandwidth)] quadruples. *)

val of_tgff : Noc_tgff.Tgff.t -> t
(** Adopts a generated task graph with its volumes and bandwidths. *)

val uniform : volume:int -> bandwidth:float -> Noc_graph.Digraph.t -> t
(** Same attributes on every edge. *)

val graph : t -> Noc_graph.Digraph.t

val volume : t -> int -> int -> int
(** Volume of an edge; 0 if the edge does not exist. *)

val bandwidth : t -> int -> int -> float

val num_cores : t -> int
val num_flows : t -> int

val grid_floorplan : t -> Noc_energy.Floorplan.t
(** The row-major grid of 2 mm cores that places every core the ACG
    names: sized by the largest core id, not the core count, since ids need
    not be contiguous. *)

val total_volume : t -> int

val restrict : t -> Noc_graph.Digraph.t -> t
(** [restrict acg g] keeps only the edges of [g] (which must be a subgraph
    of the ACG's graph), preserving attributes: used to carry attributes
    onto remaining graphs during decomposition. *)

val map_vertices : (int -> int) -> t -> t
(** [map_vertices f t] relabels every core by [f] (which must be injective
    on the cores of [t]), carrying volumes and bandwidths along. *)

(** {1 Canonicalization}

    An isomorphism-invariant fingerprint over the CSR canonical-labeling
    kernel ({!Noc_graph.Canon}), respecting edge attributes: two ACGs hash
    identically exactly when some vertex relabeling maps one onto the other
    with equal volumes and bandwidths edge-for-edge.  This is the key of
    the content-addressed result cache in [lib/serve]. *)

val canonical_hash : t -> string
(** ["canon:<md5hex>"] of the ACG serialized in canonical vertex order —
    equal for isomorphic ACGs, distinct (modulo MD5 collisions) otherwise.
    When the canonical-labeling search exceeds its work budget (only
    plausible on large highly symmetric graphs), falls back to
    ["exact:<md5hex>"] over the original vertex order: still deterministic,
    still equal for textually identical ACGs, and the distinct prefix
    guarantees the two families never collide. *)

val canonical_form : t -> (t * int Noc_graph.Digraph.Vmap.t) option
(** [canonical_form t] is [Some (t', mapping)] where [t'] is [t] relabeled
    onto cores [1..n] in canonical order and [mapping] sends each original
    core to its canonical id — so isomorphic ACGs produce structurally
    identical [t'].  [None] when canonical labeling was truncated (same
    budget as {!canonical_hash}). *)

type labeling
(** One run of the canonical-labeling search over an ACG.  Both functions
    above label from scratch; a caller that needs the hash and then maybe
    the relabeled form (the service's cache lookup, then its miss path)
    labels once and derives both from the result. *)

val canonical_labeling : t -> labeling

val hash_of_labeling : labeling -> string
(** [hash_of_labeling (canonical_labeling t) = canonical_hash t]. *)

val form_of_labeling : labeling -> (t * int Noc_graph.Digraph.Vmap.t) option
(** [form_of_labeling (canonical_labeling t) = canonical_form t]; the
    relabeling is built on each call, so derive it only when needed. *)

val pp : Format.formatter -> t -> unit
