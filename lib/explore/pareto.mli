(** Multi-objective machinery: dominance, non-dominated archives and
    hypervolume over (energy, latency, area) vectors, all minimized.

    The paper optimizes one scalar cost; the exploration driver
    ({!Explore}) follows Kao & Fink's Pareto-optimization framing instead
    and needs exactly three pieces: a dominance test, a non-dominated set
    maintained incrementally as points stream in (with an exact O(n²)
    reference filter to cross-check it), and the dominated-hypervolume
    indicator that turns a front into one regression-gateable number.

    Everything here is pure and deterministic; the archive is a persistent
    value, so snapshots along an exploration cost nothing. *)

type vector = {
  energy_pj : float;  (** Eq. 5 communication energy of the architecture *)
  latency : float;  (** volume-weighted analytic per-flow latency, cycles *)
  area_mm2 : float;  (** router + wiring area proxy *)
}

val dominates : vector -> vector -> bool
(** [dominates a b]: [a] is no worse than [b] on every objective and
    strictly better on at least one.  Equal vectors do not dominate each
    other. *)

val compare_vector : vector -> vector -> int
(** Lexicographic (energy, latency, area): the canonical front order. *)

type entry = { vec : vector; id : int  (** the design-point index *) }

type t
(** A non-dominated archive: the entries seen so far whose vectors no other
    seen vector dominates.  Entries with equal vectors are all kept (they
    are distinct design points realizing the same trade-off). *)

val empty : t
val size : t -> int

val add : entry -> t -> t
(** Insert one entry: dropped if dominated by the archive, otherwise added
    with every entry it dominates evicted.  The resulting {e set} of
    entries is independent of insertion order. *)

val of_entries : entry list -> t
(** Fold {!add} over the list. *)

val entries : t -> entry list
(** Canonical order: {!compare_vector}, ties by ascending [id]. *)

val filter_reference : entry list -> entry list
(** The exact O(n²) non-dominated filter (each entry tested against every
    other), in the same canonical order: the oracle for {!add}'s
    incremental maintenance.  {!Explore.run} asserts the two agree on
    every run. *)

val reference_point : vector list -> vector
(** Component-wise maximum of the vectors, pushed out by 10% of each
    coordinate's magnitude (at least 1.0), so every point strictly
    dominates the reference and boundary points contribute nonzero
    hypervolume.  @raise Invalid_argument on []. *)

val hypervolume : ref_point:vector -> vector list -> float
(** Volume of the union of the boxes spanned between each vector and
    [ref_point] (minimization: box [v] is [[v, ref_point]]).  Computed by
    sweeping area slabs along the area axis with a 2-D staircase per slab —
    O(n² log n) worst case, exact up to float rounding.  Vectors not
    strictly inside the reference contribute nothing; dominated vectors are
    harmless (their boxes are subsets).  Adding a vector can only grow the
    union, so the indicator is monotone under archive growth. *)
