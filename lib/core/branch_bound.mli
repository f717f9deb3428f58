(** The depth-first branch-and-bound graph decomposition algorithm
    (Section 4.4, Fig. 3 pseudo-code).

    The search explores a tree in which each node is a partially-decomposed
    remaining graph; a branch instantiates one subgraph isomorphism of one
    library primitive (a {!Matching.t}) and subtracts its covered edges.  A
    branch is cut when its accumulated cost plus an admissible lower bound
    on the cost of the remaining graph ({!Cost.lower_bound_view}) cannot
    beat the best complete decomposition found so far.  Decompositions are
    multisets of matchings, so along any root-to-leaf path matchings are
    explored in non-decreasing library-id order, which visits each multiset
    once instead of once per permutation.  When no primitive matches, the
    remaining graph becomes the remainder of a complete decomposition
    (Eq. 2); the minimum-cost legal decomposition is returned (Eq. 4).

    Following Section 5.1's advice, both the isomorphism search and the
    overall decomposition accept a wall-clock budget: on time-out the best
    incumbent found so far is returned and flagged. *)

type neutral_strategy =
  | Branch
      (** neutral primitives take part in branching like any other (the
          literal reading of the paper's pseudo-code; exponentially larger
          trees) *)
  | Greedy
      (** only "saver" primitives - those whose implementation uses fewer
          links than the edges they cover, i.e. the gossip graphs - drive
          the branching; loops, paths and broadcasts, whose matchings cost
          exactly as much as dedicated links, are re-attached by a
          deterministic greedy pass at each leaf.  Same optimal cost, same
          style of listing, dramatically smaller search tree. *)

(** The search budget: every resource limit of one [decompose] call in a
    single record.

    Build one from {!Budget.default} with the [with_*] narrowing
    functions:
    {[
      Branch_bound.Budget.(default |> with_timeout_s (Some 5.) |> with_domains 4)
    ]} *)
module Budget : sig
  type t = {
    timeout_s : float option;  (** wall-clock budget for the whole search *)
    max_nodes : int;  (** search-tree node budget (backstop) *)
    domains : int;  (** OCaml 5 domains running the search *)
  }

  val default : t
  (** No timeout, 200k nodes, 1 domain. *)

  val with_timeout_s : float option -> t -> t
  val with_max_nodes : int -> t -> t
  val with_domains : int -> t -> t

  val starved : t -> bool
  (** [starved t] is [true] when [timeout_s] is declared non-positive: the
      deadline is unsatisfiable before any work starts, so a service should
      answer [Over_budget] instead of admitting the request. *)

  val clamp_service : ?default_timeout_s:float -> ?max_timeout_s:float ->
    ?max_nodes_cap:int -> t -> t
  (** The service-side budget guard: requests with no wall-clock deadline
      inherit [default_timeout_s], declared deadlines are clamped to
      [max_timeout_s], and [max_nodes] is capped at [max_nodes_cap] — so no
      admitted request can hold a worker longer than the daemon's hard
      per-request wall budget.  Omitted bounds leave the corresponding
      field untouched; [domains] is never changed (it is an execution
      hint). *)
end

type options = {
  cost : Cost.t;
  constraints : Constraints.t option;  (** checked before an incumbent is accepted *)
  max_matches_per_step : int;
      (** branching factor cap, at least 1: how many distinct covered-edge
          sets of each primitive are expanded at one tree node.  The paper's
          Fig. 2 tree branches on one isomorphism per library graph per
          node, which is the default (1); larger values widen the search.
          Under [Edge_count] each set is represented by the first match
          found; under [Energy] the vertex-role assignment changes a
          matching's cost (which pairs ride multi-hop routes), so each set
          is represented by its cheapest role assignment *)
  neutrals : neutral_strategy;  (** default [Greedy] *)
  fallback : bool;
      (** before searching, run the deterministic greedy completion from
          the root and publish it as the initial incumbent: it prunes from
          the first node, and on budget exhaustion the caller is guaranteed
          a feasible decomposition with {!stats.gap_pct} reported instead
          of the bare all-remainder covering (default false) *)
}

val default_options : options
(** [Edge_count] cost, no constraints, one match per primitive per step,
    [Greedy] neutrals and no fallback.  Resource limits live in {!Budget.t}.

    The search always also considers stopping the decomposition at inner
    nodes (leaving a matchable graph as remainder).  This strictly
    generalizes the paper's leaves-only rule — never worse, and it lets
    the algorithm reject energy-losing matchings; on cost ties the deeper
    (more matched) decomposition found first is kept. *)

val energy_options :
  tech:Noc_energy.Technology.t -> fp:Noc_energy.Floorplan.t -> options
(** Energy cost (so each covered-edge set keeps its cheapest role
    assignment) and constraints from the technology. *)

type prim_stats = {
  attempts : int;  (** candidate enumerations run for this primitive *)
  hits : int;  (** matchings those enumerations produced *)
}

type vf2_stats = {
  probes : int;  (** candidate vertex-pair feasibility tests *)
  backtracks : int;  (** VF2 states popped after exploration *)
}

type stats = {
  nodes : int;  (** search-tree nodes expanded *)
  matches_tried : int;  (** matchings instantiated as branches *)
  leaves : int;  (** complete decompositions evaluated *)
  pruned : int;  (** branches cut by the lower bound *)
  incumbents : int;  (** accepted incumbent improvements *)
  tasks : int;  (** work-stealing tasks spawned (1 for a sequential run) *)
  steals : int;  (** tasks taken from another worker's deque *)
  elapsed_s : float;
  timed_out : bool;  (** wall-clock or node budget exhausted *)
  best_cost : float;
  constraints_met : bool;
      (** false when every complete decomposition violated constraints and
          the all-remainder fallback was returned *)
  fallback_used : bool;
      (** the returned decomposition is the greedy fallback seed — the
          search found nothing strictly better within the budget *)
  gap_pct : float option;
      (** only on a timed-out search: the reported cost's distance above
          the root admissible lower bound, in percent — an upper bound on
          the true optimality gap.  [None] when the search completed. *)
  per_primitive : (string * prim_stats) list;
      (** match attempts/hits per library primitive, in library order *)
  vf2 : vf2_stats;
      (** isomorphism-engine counters; all zero unless an enabled observer
          was passed (the hook is off by default so the inner loop stays
          uninstrumented) *)
}

val stats_to_json : stats -> Noc_obs.Obs.Json.t
(** The whole record as a JSON object (used by [--metrics] and the
    report). *)

val domain_cap : unit -> int
(** The most domains one [decompose] call may use:
    [Domain.recommended_domain_count ()] (at least 1), overridable with the
    [NOCSYNTH_MAX_DOMAINS] environment variable — the escape hatch for
    deliberately oversubscribing a small machine (tests, CI boxes). *)

val resolve_budget : ?budget:Budget.t -> unit -> Budget.t
(** The single resolution point for the search budget, applied by
    {!decompose}: [Budget.domains] is forced to at least 1 and clamped to
    {!domain_cap} (warning when the clamp bites).  [budget] defaults to
    {!Budget.default}. *)

val decompose :
  ?options:options ->
  ?budget:Budget.t ->
  ?observe:Noc_obs.Obs.t ->
  library:Noc_primitives.Library.t ->
  Acg.t ->
  Decomposition.t * stats
(** Runs the search.  The returned decomposition always satisfies
    {!Decomposition.is_valid_for}.

    [budget] gathers every resource limit and is clamped by
    {!resolve_budget}.

    [observe] (default {!Noc_obs.Obs.disabled}) attaches an observer:
    setup and search phases become trace spans, each worker of the
    parallel search becomes a span on its own domain, every greedy
    leaf pass the search computes becomes a [greedy-pass] span (none for a
    pass a child inherits from its parent), every accepted incumbent emits
    an instant event, and the final counters
    ([search.nodes], [search.pruned], [vf2.probes],
    [match.<primitive>.attempts/hits], per-domain busy-time gauges, ...)
    are published into the observer's registry.  With the observer
    disabled the search runs the exact same code path as before the hook
    existed — the differential tests assert bit-identical decompositions,
    costs and listings either way.

    With [Budget.domains > 1] the search runs on the {!Ws.run} pool: the
    root is one task, every worker pushes branches shallower than a fixed
    spawn depth as stealable tasks onto its own deque (deterministically —
    the task set never depends on timing), pops its own deque depth-first
    and steals from other workers' tops when idle.
    Workers share the incumbent cost through an atomic and cut a subtree
    on the shared bound only when its admissible lower bound is
    {e strictly} above it, so no subtree that could attain the global
    minimum is ever lost to scheduling.  Every task carries its root-path
    (child indices), and the reduction minimizes (cost, depth-first path)
    over the search incumbents, ranking the fallback seed after all of
    them, so the returned decomposition and [best_cost] are
    identical to the sequential run's — independent of steal order —
    whenever the search completes within its budget.  This holds with
    constraints too: {!Constraints.check} is a pure function of the
    candidate, so every worker reaches the same verdict on it.  A
    budget-exhausted search is an anytime result: which subtrees were
    visited before the shared node counter ran out depends on scheduling,
    so only validity and feasibility of the incumbent are guaranteed, not
    bit-equality.  Search statistics
    ([pruned], [leaves], ...) depend on timing and are aggregated across
    workers; [steals] and per-domain busy/idle gauges expose scheduler
    health.

    @raise Invalid_argument when [max_matches_per_step < 1]. *)
