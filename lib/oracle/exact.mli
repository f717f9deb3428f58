(** Exhaustive decomposition oracle: the ground-truth optimal cost of
    Eq. 4 for small graphs, computed without any of the machinery the
    branch-and-bound search relies on (no VF2, no CSR views, no lower
    bounds, no canonical ordering, no greedy neutral pass).

    The recursion is the literal reading of Definitions 2–4 under the
    wiring cost: a state is the set of still-uncovered edges; its optimal
    cost is the minimum of (a) realizing every remaining edge as a
    dedicated link and (b) for every library primitive and every distinct
    set of remaining edges some monomorphism of that primitive covers
    (enumerated by the naive {!Iso} oracle), the primitive's implementation
    link count plus the optimum of the state minus that set.  Option (a)
    at every state makes this the optimum over early-remainder
    decompositions, the space [Branch_bound.decompose] searches (every
    search node is also a leaf).

    By default only {e saver} primitives — implementation links strictly
    fewer than representation edges, i.e. the gossip graphs — branch.
    This loses nothing: a monomorphism of a non-saver covers exactly its
    representation-edge count of distinct edges (injectivity), and its
    matching costs its implementation link count ≥ that, so replacing the
    matching with dedicated links never increases the total; the
    saver-only optimum equals the full optimum.  [~all_primitives:true]
    drops the restriction so the claim itself is cross-checked by test
    ({!val-optimal_cost} agrees either way on every graph small enough to
    run both).

    Only the [Edge_count] cost is supported: under the [Energy] cost every
    route visits at least two routers and at least the direct Manhattan
    wire, so no matching ever beats dedicated links and the optimum is
    degenerate (the all-remainder decomposition). *)

val optimal_cost :
  ?all_primitives:bool ->
  ?max_states:int ->
  library:Noc_primitives.Library.t ->
  Noc_graph.Digraph.t ->
  float
(** Ground-truth minimum decomposition cost of the graph under
    [Edge_count].  [max_states] (default 200_000) bounds the memo table.
    @raise Invalid_argument when the state space exceeds [max_states] —
    keep inputs at or below ~8 vertices. *)

val saver_entries : Noc_primitives.Library.t -> Noc_primitives.Library.entry list
(** The entries allowed to branch by default, recomputed from the graphs
    themselves (undirected implementation links < representation edges). *)
