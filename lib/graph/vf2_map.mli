(** Reference map-based VF2 engine (the original implementation).

    This is the straightforward {!Digraph}-native VF2: [Hashtbl] search
    state, [Set]-based candidate intersection, [O(log n)] adjacency probes.
    The production engine ({!Vf2}) runs the same search on the {!Compact}
    CSR kernel and enumerates matchings in exactly the same order; this
    module is retained as the {e executable specification} — the qcheck
    differential suite and the fuzz harness check the compact engine
    against it on random graphs.  It sees no production traffic. *)

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
