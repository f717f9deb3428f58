(** Multi-pattern matching with invariant pre-screening.

    Section 5.1 of the paper points at Messmer & Bunke's decision-tree
    approach for matching a {e collection} of model graphs (the
    communication library) against an input faster than running the
    isomorphism test once per model.  This module implements the practical
    core of that idea: the pattern set is compiled once into a table of
    cheap structural invariants (vertex/edge counts, sorted degree
    sequences), the target's invariants are computed once per query, and
    the caller runs full VF2 search only for the patterns that survive the
    screen.

    The screen is sound for subgraph {e monomorphism}: a pattern can only
    embed if its vertex count, edge count and sorted degree sequences are
    dominated by the target's (the k-th largest pattern out-degree can not
    exceed the k-th largest target out-degree, since an embedding maps each
    pattern vertex onto a target vertex of at least its degree).  Every
    invariant only falls as edges are deleted, so a pattern screened out of
    a view stays screened out of every view that deletes more. *)

type t
(** A compiled pattern set. *)

val compile : (int * Digraph.t) list -> t
(** [compile [(id, pattern); ...]] precomputes the invariants.  Ids must be
    distinct. @raise Invalid_argument on duplicate ids. *)

val survivors_view : t -> Compact.view -> int list
(** Ids of the patterns that pass the invariant screen against the target,
    in compile order, with the degree profile read straight off the CSR
    snapshot and its deletion overlay.  Every pattern with at least one
    monomorphism into the target is guaranteed to be included (no false
    negatives); some survivors may still fail the full search. *)
