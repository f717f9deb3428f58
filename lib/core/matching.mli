(** A matching (Definition 4): a subgraph isomorphism from a library
    primitive's representation graph into the ACG, together with the ACG
    edges it covers and the routes those edges take on the primitive's
    implementation graph (transferred into ACG vertex names). *)

type t = private {
  entry : Noc_primitives.Library.entry;
  mapping : int Noc_graph.Digraph.Vmap.t;
      (** canonical primitive vertex -> ACG vertex *)
  covered : Noc_graph.Digraph.Edge.t list;
      (** ACG edges covered by this matching, sorted *)
}

val of_vf2 : Noc_primitives.Library.entry -> Noc_graph.Vf2.mapping -> t
(** The matching of an exact monomorphism of [entry]'s representation
    graph (Definition 3): it covers the image of every representation
    edge. *)

val primitive : t -> Noc_primitives.Primitive.t

val impl_in_acg : t -> Noc_graph.Digraph.t
(** The implementation graph transferred onto ACG vertices: the physical
    links this matching contributes to the synthesized architecture
    (a symmetric digraph). *)

val acg_route : t -> src:int -> dst:int -> int list option
(** Route (in ACG vertex names) for a covered ACG edge, derived from the
    primitive's schedule-based routing table (Section 4.5). *)

val routes : t -> (Noc_graph.Digraph.Edge.t * int list) list
(** Route for every covered edge. *)

val cost : Cost.t -> Acg.t -> t -> float
(** Eq. 5 under [Energy]; number of implementation links under
    [Edge_count]. *)

val pp : Format.formatter -> t -> unit
(** The paper's listing format:
    ["1: MGG4,   Mapping: (1 1), (2 5), (3 9), (4 13)"]. *)
