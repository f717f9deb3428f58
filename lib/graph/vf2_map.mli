(** Reference map-based VF2 engine (the original implementation).

    This is the straightforward {!Digraph}-native VF2: [Hashtbl] search
    state, [Set]-based candidate intersection, [O(log n)] adjacency probes.
    The production engine ({!Vf2}) runs the same search on the {!Compact}
    CSR kernel and enumerates matchings in exactly the same order; this
    module is retained as the {e executable specification} — the qcheck
    differential suites check the compact engine against it on random
    graphs.  It sees no production traffic. *)

type mapping = int Digraph.Vmap.t
(** Pattern vertex [->] target vertex. *)

type outcome =
  | Exhausted  (** the whole search space was explored *)
  | Stopped  (** the callback requested an early stop *)
  | Timed_out  (** the deadline expired *)

val iter :
  ?deadline:float ->
  pattern:Digraph.t ->
  target:Digraph.t ->
  (mapping -> [ `Continue | `Stop ]) ->
  outcome
(** [iter ~pattern ~target f] calls [f] on every subgraph monomorphism from
    [pattern] into [target], until [f] answers [`Stop], the optional
    wall-clock [deadline] (absolute, as given by [Unix.gettimeofday]) passes,
    or the space is exhausted. *)

val find_first : ?deadline:float -> pattern:Digraph.t -> target:Digraph.t -> unit -> mapping option
(** First monomorphism found, if any. *)

val exists : ?deadline:float -> pattern:Digraph.t -> target:Digraph.t -> unit -> bool

val find_all :
  ?deadline:float ->
  ?max_matches:int ->
  pattern:Digraph.t ->
  target:Digraph.t ->
  unit ->
  mapping list
(** All monomorphisms (up to [max_matches], default unlimited), in discovery
    order. *)

val find_distinct_images :
  ?deadline:float ->
  ?max_matches:int ->
  pattern:Digraph.t ->
  target:Digraph.t ->
  unit ->
  mapping list
(** Like {!find_all} but keeps a single representative per {e covered target
    edge set}: two monomorphisms that map the pattern's edges onto the same
    set of target edges lead to identical remaining graphs, so for
    decomposition branching only one needs to be explored (the cost of a
    matching may still depend on vertex roles; see
    [Noc_core.Matching]). *)

val edge_image : pattern:Digraph.t -> mapping -> Digraph.Edge.t list
(** The target edges covered by a monomorphism, sorted. *)

val is_monomorphism : pattern:Digraph.t -> target:Digraph.t -> mapping -> bool
(** Checks injectivity and edge preservation; used by tests. *)

(** {1 Approximate matching}

    Section 5.1 of the paper suggests relaxing "the requirement for perfect
    matching" so that graphs {e sufficiently close} to a library pattern are
    still detected.  An approximate monomorphism maps every pattern vertex
    injectively but tolerates up to [max_missing] pattern edges whose images
    are not present in the target; near-gossip traffic can then still be
    implemented by a Minimum Gossip Graph. *)

type approx = {
  approx_mapping : mapping;
  missing : Digraph.Edge.t list;
      (** pattern edges (in pattern vertex names) with no target edge *)
}

val iter_approx :
  ?deadline:float ->
  max_missing:int ->
  pattern:Digraph.t ->
  target:Digraph.t ->
  (approx -> [ `Continue | `Stop ]) ->
  outcome
(** Like {!iter} but tolerating up to [max_missing] unrealized pattern
    edges.  With [max_missing = 0] it enumerates exactly the monomorphisms
    of {!iter}. *)

val find_first_approx :
  ?deadline:float ->
  max_missing:int ->
  pattern:Digraph.t ->
  target:Digraph.t ->
  unit ->
  approx option

val find_all_approx :
  ?deadline:float ->
  ?max_matches:int ->
  max_missing:int ->
  pattern:Digraph.t ->
  target:Digraph.t ->
  unit ->
  approx list

val covered_edge_image : pattern:Digraph.t -> target:Digraph.t -> mapping -> Digraph.Edge.t list
(** Target edges actually realized by a (possibly approximate) mapping:
    images of pattern edges that exist in the target, sorted. *)
