(** Core placement.

    The paper assumes "an initial floorplanning step has been performed and
    optimized for chip area.  Hence, the core coordinates are given as
    inputs to the algorithm" (Section 4).  This module provides that step:
    cores with physical dimensions are placed on a grid, and a simulated
    annealing pass can permute the placement to reduce
    communication-weighted wirelength (which is what makes the energy cost
    of Eq. 5 meaningful).  Link lengths are Manhattan distances between core
    centers, the standard global-wire estimate. *)

type core = { id : int; width_mm : float; height_mm : float }

type t
(** A placement: every core has a center coordinate. *)

val cores : t -> core list

val position : t -> int -> float * float
(** Center coordinates of a core. @raise Not_found for unknown ids. *)

val mem : t -> int -> bool

val uniform_cores : n:int -> size_mm:float -> core list
(** [n] square cores of the given side. *)

val grid : ?cols:int -> core list -> t
(** Row-major grid placement (the paper's AES cores form a 4×4 grid).  Cell
    pitch is the maximum core dimension; [cols] defaults to
    ⌈sqrt n⌉. *)

val distance_mm : t -> int -> int -> float
(** Manhattan distance between two core centers. *)

val path_length_mm : t -> int list -> float list
(** Per-hop lengths along a vertex path: [path_length_mm fp [a;b;c]] is
    [[d(a,b); d(b,c)]]. *)

val bounding_box_mm : t -> float * float
(** Width and height of the occupied bounding box (core extents included). *)

val area_mm2 : t -> float

val wirelength : t -> weights:float Noc_graph.Digraph.Edge_map.t -> float
(** Σ weight(u,v) · distance(u,v) over the weighted edge map: the annealing
    objective. *)

val anneal :
  rng:Noc_util.Prng.t ->
  ?iterations:int ->
  weights:float Noc_graph.Digraph.Edge_map.t ->
  t ->
  t
(** Simulated annealing over placement swaps minimizing {!wirelength}:
    [iterations] (default 2000) swap attempts, cooling geometrically from
    temperature 1.0 to 0.01.  Deterministic for a given PRNG state.  Keeps
    grid sites fixed (area is preserved); only the core-to-site assignment
    changes. *)

val pp : Format.formatter -> t -> unit
