(** Persistent directed graphs over integer vertices.

    This is the structural substrate of the whole project: Application
    Characterization Graphs, library primitives, implementation graphs and
    synthesized topologies are all values of {!t} (edge attributes such as
    communication volume live in separate maps keyed by {!Edge_map}).

    The module implements the graph algebra of the paper (Definitions 1 and
    2): {!union} is graph sum, {!diff_edges} is the remaining graph after a
    matched subgraph is subtracted.  Graphs are persistent so the
    branch-and-bound search can keep many partially-decomposed graphs alive
    with structural sharing. *)

module Vset : Set.S with type elt = int
module Vmap : Map.S with type key = int

module Edge : sig
  type t = int * int
  (** Directed edge [(src, dst)]. *)

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module Edge_set : Set.S with type elt = Edge.t
module Edge_map : Map.S with type key = Edge.t

type t
(** A directed graph.  Self-loops are rejected; parallel edges do not
    exist (the edge set is a set). *)

val empty : t

val is_empty : t -> bool
(** [is_empty g] holds when [g] has no vertices. *)

val has_no_edges : t -> bool

val add_vertex : t -> int -> t

val add_edge : t -> int -> int -> t
(** [add_edge g u v] adds vertices [u], [v] and the edge [u -> v].
    @raise Invalid_argument on a self-loop. *)

val add_edge_pair : t -> int -> int -> t
(** [add_edge_pair g u v] adds both [u -> v] and [v -> u]. *)

val remove_edge : t -> int -> int -> t
(** Removes the edge if present; vertices are kept. *)

val remove_vertex : t -> int -> t
(** Removes a vertex and all incident edges. *)

val mem_vertex : t -> int -> bool
val mem_edge : t -> int -> int -> bool

val succ : t -> int -> Vset.t
(** Successors; empty set for unknown vertices. *)

val pred : t -> int -> Vset.t

val out_degree : t -> int -> int
val in_degree : t -> int -> int
val degree : t -> int -> int
(** [degree g v] is in-degree + out-degree. *)

val vertices : t -> Vset.t
val vertex_list : t -> int list
val num_vertices : t -> int
val num_edges : t -> int

val edges : t -> Edge.t list
(** All edges in lexicographic order. *)

val edge_set : t -> Edge_set.t

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter_edges : (int -> int -> unit) -> t -> unit
val fold_vertices : (int -> 'a -> 'a) -> t -> 'a -> 'a

val of_edges : ?vertices:int list -> Edge.t list -> t
(** Builds a graph from an edge list, adding the optional isolated
    [vertices] as well. *)

val union : t -> t -> t
(** Graph sum (Definition 1): vertex and edge sets are unioned. *)

val diff_edges : t -> Edge.t list -> t
(** [diff_edges g es] is the remaining graph of Definition 2: the edges
    [es] are removed, every vertex is kept. *)

val induced : t -> Vset.t -> t
(** Subgraph induced by a vertex set. *)

val map_vertices : (int -> int) -> t -> t
(** Relabels vertices; the function must be injective on [vertices g].
    @raise Invalid_argument if two vertices collide. *)

val reverse : t -> t
(** Reverses every edge. *)

val undirected_closure : t -> t
(** Adds the reverse of every edge (symmetric closure). *)

val undirected_edge_count : t -> int
(** Number of unordered vertex pairs connected by at least one edge. *)

val undirected_edges : t -> (int * int) list
(** Those pairs as [(min, max)], sorted: an architecture's physical links
    when [t] is its topology. *)

val equal : t -> t -> bool
(** Same vertex set and same edge set. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: [{vertices=...; edges=...}]. *)
