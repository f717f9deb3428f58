(** Canonical labeling of edge-labeled digraphs over the CSR kernel.

    Two graphs receive the same canonical order exactly when they are
    isomorphic (respecting edge labels), so a serialization of a graph in
    canonical order is an isomorphism-invariant certificate — the basis of
    the content-addressed synthesis cache ({!Noc_core.Acg.canonical_hash}).

    The algorithm is the classic individualization-refinement scheme
    (nauty's skeleton, without automorphism pruning):

    + {e refinement}: vertices are iteratively recolored by the multiset of
      (edge label, neighbor color) pairs over their successors and
      predecessors until the partition stabilizes — a Weisfeiler-Lehman
      pass that is already discrete for almost every irregular graph;
    + {e individualization}: if cells remain, each vertex of the first
      smallest non-singleton cell is tentatively given a fresh color, the
      partition is re-refined, and the recursion keeps the lexicographically
      smallest certificate over all discrete refinements reached.

    Without automorphism pruning the recursion can visit every
    automorphism of a highly symmetric graph, so the search carries a work
    budget: when it is exhausted the result is [`Truncated] and callers
    must fall back to an identity-only fingerprint.  ACGs — irregular,
    attribute-weighted communication graphs — essentially always refine to
    a discrete partition in one or two rounds. *)

val canonical_order :
  ?edge_label:(int -> int -> int) ->
  ?max_refines:int ->
  Compact.t ->
  [ `Canonical of int array | `Truncated ]
(** [canonical_order ?edge_label g] is [`Canonical rank] where [rank.(i)]
    is the canonical position of dense vertex [i] (a permutation of
    [0 .. n-1]), or [`Truncated] when the individualization search exceeds
    [max_refines] refinement passes (default 10_000).

    [edge_label] maps a directed edge (dense endpoint ids) to a
    non-negative label id and defaults to [fun _ _ -> 0] (unlabeled).
    Labels must themselves be isomorphism-invariant — e.g. the rank of the
    edge's attribute tuple among all distinct attribute tuples — or the
    resulting order will separate graphs that only differ by labeling.

    Invariance contract: for any relabeling of the underlying graph (and a
    consistently relabeled [edge_label]), serializing edges as
    [(rank src, rank dst, label)] triples sorted lexicographically yields
    the identical certificate.  {!Noc_core.Acg} builds its hash input from
    the same ranks plus the full attribute values. *)
