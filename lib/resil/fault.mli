(** The fault model: what can break.

    A fault takes one physical resource of a synthesized architecture down
    for a whole run: an (undirected) link or a switch.  Faults act on the
    architecture, not on a running simulation: {!Reroute.apply} degrades
    the routing tables before traffic is injected.  Campaign generators
    build deterministic fault sets from an architecture: exhaustive over
    single links, or seeded random samples of simultaneous multi-link
    failures (reusing {!Noc_util.Prng}). *)

type t =
  | Link of int * int  (** normalized: first endpoint <= second *)
  | Switch of int

val link : int -> int -> t
(** [link u v] is a fault taking the undirected link [u-v] down. *)

val switch : int -> t

val single_link_campaign : Noc_core.Synthesis.t -> t list list
(** One singleton fault set per physical link — the exhaustive single-link
    sweep, in the order of {!Noc_graph.Digraph.undirected_edges}. *)

val multi_link_campaign :
  rng:Noc_util.Prng.t -> links:int -> samples:int -> Noc_core.Synthesis.t -> t list list
(** [samples] fault sets of [links] simultaneous distinct link failures
    each, sampled with [rng] (deterministic for a given seed).  [links] is
    clamped to the number of physical links. *)
