(** Canonical labeling of edge-labeled digraphs over the CSR kernel.

    Two graphs receive the same canonical order exactly when they are
    isomorphic (respecting edge labels), so a serialization of a graph in
    canonical order is an isomorphism-invariant certificate — the basis of
    the content-addressed synthesis cache ({!Noc_core.Acg.canonical_hash}).

    The algorithm is nauty's individualization-refinement scheme with
    orbit pruning (McKay & Piperno, "Practical graph isomorphism, II",
    J. Symb. Comput. 2014):

    + {e refinement}: vertices are iteratively recolored by the multiset of
      (edge label, neighbor color) pairs over their successors and
      predecessors until the partition stabilizes — a Weisfeiler-Lehman
      pass that is already discrete for almost every irregular graph.
      Labels are read once per labeling; a pass sorts integer keys
      [label * (n + 1) + color] per vertex and only the vertices of
      non-singleton cells;
    + {e individualization}: if cells remain, each vertex of the first
      smallest non-singleton cell is tentatively given a fresh color, in
      ascending dense id, the partition is re-refined, and the recursion
      keeps the first discrete refinement reaching the lexicographically
      smallest certificate;
    + {e orbit pruning}: a leaf whose certificate equals the best one
      yields the automorphism [best⁻¹ ∘ leaf].  Each open node keeps the
      orbits (a union-find) of the stored automorphisms that fix every
      vertex individualized on its path, seeded when the node opens and
      updated as automorphisms are found, and skips a target-cell vertex
      in the orbit of an earlier sibling.

    Pruning changes no answer.  Refinement and the choice of target cell
    are equivariant under such an automorphism, so a skipped subtree holds
    exactly the certificates of an earlier sibling's subtree, and each of
    them is reached there first: the first leaf with the least certificate
    is never skipped, and the result is the one the unpruned search would
    return.

    The search carries a work budget: when it is exhausted the result is
    [`Truncated] and callers must fall back to an identity-only
    fingerprint.  ACGs — irregular, attribute-weighted communication
    graphs — essentially always refine to a discrete partition in one or
    two rounds; symmetric ones (a 16-core FFT butterfly, a 5-cube) need a
    few dozen leaves. *)

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
    non-negative label id and defaults to [fun _ _ -> 0] (unlabeled); it
    is called once per edge.
    Labels must themselves be isomorphism-invariant — e.g. the rank of the
    edge's attribute tuple among all distinct attribute tuples — or the
    resulting order will separate graphs that only differ by labeling.

    Invariance contract: for any relabeling of the underlying graph (and a
    consistently relabeled [edge_label]), serializing edges as
    [(rank src, rank dst, label)] triples sorted lexicographically yields
    the identical certificate.  {!Noc_core.Acg} builds its hash input from
    the same ranks plus the full attribute values.

    The pruned search runs a subset of the unpruned search's refinement
    passes, so every graph the unpruned search labeled within a budget is
    labeled here, with the same rank, within that budget. *)
