(** Immutable CSR snapshots of {!Digraph.t}, with an edge-deletion overlay.

    The branch-and-bound decomposition spends essentially all of its time
    probing adjacency: VF2 feasibility checks, degree look-aheads and the
    [diff_edges] that produces each child's remaining graph.  On the
    persistent {!Digraph} every one of those probes is an [O(log n)] map
    lookup and every subtraction rebuilds adjacency maps.  This module
    freezes a digraph once into a dense, int-array CSR form:

    - vertices are renumbered densely [0..n-1] in increasing original-id
      order (so iterating dense ids visits original ids in ascending order —
      the VF2 kernel relies on this to enumerate matches in exactly the same
      order as the map-based engine);
    - successor/predecessor slices are sorted int arrays, degrees are O(1)
      offset differences, [mem_edge] is a single bit test against a
      multi-word adjacency bitmap (one [(n+63)/64]-word row per vertex, in
      both forward and transposed orientation, so 1024-core graphs probe as
      cheaply as 16-core ones);
    - a {!view} layers a set of {e deleted} edges over the frozen base, so
      the search can subtract covered edges in [O(k log k)] array merging
      without ever rebuilding maps.

    The representation is exposed concretely: this is a low-level kernel
    interface and the VF2 inner loop indexes the arrays directly. *)

type t = {
  n : int;  (** number of vertices *)
  verts : int array;  (** dense id -> original id, strictly increasing *)
  succ_off : int array;  (** length [n+1]; slice bounds into [succ_arr] *)
  succ_arr : int array;  (** dense successor ids, ascending per slice *)
  pred_off : int array;
  pred_arr : int array;  (** dense predecessor ids, ascending per slice *)
  words : int;  (** int64 words per bitset row, [(n + 63) / 64] *)
  adj : int64 array;
      (** forward adjacency bitmap, [n * words] int64s; row [u] starts at
          [u * words], and bit [v land 63] of word [v lsr 6] is set iff edge
          [u -> v] exists *)
  radj : int64 array;
      (** transposed adjacency bitmap, same layout: row [v] bit [u] is set
          iff edge [u -> v] exists (predecessor rows for word-parallel
          candidate intersection) *)
  n_edges : int;
}

type view = {
  base : t;
  del : int array;  (** deleted edges as sorted packed codes [u * n + v] *)
  del_bits : int64 array;
      (** deleted-edge bitmap, [n * words] int64s laid out like [adj];
          [[||]] until the first deletion *)
  del_out : int array;  (** per-vertex deleted out-degree; [[||]] if none *)
  del_in : int array;
}

val freeze : Digraph.t -> t
(** Snapshot a digraph.  O(V + E). *)

val view : t -> view
(** The identity overlay: the frozen graph with nothing deleted. *)

(** {1 Vertex numbering} *)

val vertex : t -> int -> int
(** [vertex g i] is the original id of dense vertex [i]. *)

val index : t -> int -> int
(** [index g v] is the dense id of original vertex [v], or [-1] when [v] is
    not a vertex of the frozen graph.  Binary search, O(log n). *)

(** {1 Dense-id queries on a view} *)

val out_degree_d : view -> int -> int
val in_degree_d : view -> int -> int
val mem_edge_d : view -> int -> int -> bool
(** All O(1) at any size: two bitmap probes ([adj] minus [del_bits]). *)

(** {1 Original-id queries} *)

val mem_edge : view -> int -> int -> bool
(** By original vertex ids. *)

val num_edges : view -> int
val num_vertices : view -> int

val fold_edges : (int -> int -> 'a -> 'a) -> view -> 'a -> 'a
(** Fold over the surviving edges in lexicographic original-id order —
    the same order as {!Digraph.fold_edges} on the equivalent digraph. *)

val degree_profile : view -> int array * int array
(** [(out_desc, in_desc)]: the view's out- and in-degree sequences sorted
    descending, as consumed by the {!Multi_pattern} invariant screen. *)

(** {1 Overlay updates} *)

val delete_edges : view -> Digraph.Edge.t list -> view
(** [delete_edges v es] removes the listed edges (original ids; edges not
    present in the view are ignored, mirroring {!Digraph.diff_edges}).  The
    base snapshot is shared; only the overlay arrays are copied. *)

val to_digraph : view -> Digraph.t
(** Materialize the view as a persistent digraph.  Every vertex of the
    frozen base is kept, exactly like {!Digraph.diff_edges}. *)
