(** VF2-style subgraph isomorphism for directed graphs.

    Implements the matching semantics of Definition 3 of the paper: an
    injective map [f] from the pattern's vertices into the target's vertices
    such that every pattern edge maps to a target edge ({e subgraph
    monomorphism} — the matched subgraph need not be induced, because
    Definition 2 subtracts only the matched {e edges} from the remaining
    graph).

    The search uses the VF2 state-space construction (Cordella et al., IEEE
    TPAMI 2004, the same engine the paper calls from Matlab): vertices are
    added to the partial mapping in a connectivity-aware order, candidate
    target vertices are drawn from the frontier of the current mapping, and
    in/out-degree look-ahead prunes infeasible states.  The paper notes
    (Section 5.1) that isomorphism search should be cut off after a time-out
    rather than exhausting all permutations; {!val-iter} takes an optional
    deadline for exactly this purpose.

    The engine runs on the {!Compact} CSR kernel: int-array search state,
    O(1) degree look-ahead, bitset/binary-search adjacency probes, and no
    allocation in the inner loop (mappings are materialized as [Vmap]s only
    at the callback boundary).  The [Digraph]-typed entry points freeze
    their arguments on the way in; the [_view] entry points accept frozen
    graphs directly so the branch-and-bound search can reuse one snapshot
    across the whole tree.  Matches are enumerated in exactly the same
    order as the map-based reference engine ({!Vf2_map}): dense ids are
    assigned in ascending original-id order, ties in the pattern ordering
    and candidate enumeration resolve identically. *)

type mapping = int Digraph.Vmap.t
(** Pattern vertex [->] target vertex. *)

type outcome =
  | Exhausted  (** the whole search space was explored *)
  | Stopped  (** the callback requested an early stop *)
  | Timed_out  (** the deadline expired *)

(** Optional search instrumentation (the observability hook).

    When an [Instr.t] is passed, the engine counts candidate feasibility
    probes and backtracks in local registers and publishes them into the
    record's atomics once per search, so the same record can be shared by
    concurrent searches across domains.  Instrumentation never changes
    which matches are found or their enumeration order, and costs nothing
    beyond two register increments per candidate when absent. *)
module Instr : sig
  type t = { probes : int Atomic.t; backtracks : int Atomic.t }

  val create : unit -> t

  val probes : t -> int
  (** Candidate (pattern vertex, target vertex) pairs tested for
      feasibility. *)

  val backtracks : t -> int
  (** Search states popped after exploring an extension. *)

  val flush : t -> probes:int -> backtracks:int -> unit
  (** Adds locally-accumulated counts; used by the engines themselves. *)
end

val iter :
  ?deadline:float ->
  ?instr:Instr.t ->
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

(** {1 Compact-kernel entry points}

    Same semantics and enumeration order as the functions above, but
    operating on pre-frozen {!Compact} snapshots: the pattern is a frozen
    base, the target an edge-deletion {!Compact.view}.  Mappings are still
    expressed in {e original} vertex ids, so the results are
    interchangeable with the [Digraph] API.  The deadline is a monotonic
    {!Noc_util.Timer.Deadline.t} (default [none]), so a search that already
    holds one polls it directly. *)

val iter_view :
  ?deadline:Noc_util.Timer.Deadline.t ->
  ?instr:Instr.t ->
  pattern:Compact.t ->
  target:Compact.view ->
  (mapping -> [ `Continue | `Stop ]) ->
  outcome

val find_first_view :
  ?deadline:Noc_util.Timer.Deadline.t ->
  ?instr:Instr.t ->
  pattern:Compact.t ->
  target:Compact.view ->
  unit ->
  mapping option

val find_distinct_images_view :
  ?deadline:Noc_util.Timer.Deadline.t ->
  ?instr:Instr.t ->
  ?max_matches:int ->
  pattern:Compact.t ->
  target:Compact.view ->
  unit ->
  mapping list
