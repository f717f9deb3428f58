(** Deadlock analysis of a synthesized architecture (Section 4.5: "the
    cycles that can cause deadlock can be detected and avoided by the
    algorithm, while it is also possible to eliminate such cycles by
    introducing virtual channels").

    The standard tool is Dally & Seitz's channel dependency graph (CDG):
    one vertex per directed physical channel, and an edge from channel
    [c1 = (a,b)] to channel [c2 = (b,c)] whenever some route uses [c1]
    immediately followed by [c2].  Routing is deadlock-free if the CDG is
    acyclic. *)

type report = {
  cdg_cycle : (int * int) list option;
      (** a cycle of channels witnessing the deadlock risk, if any *)
  vcs_needed : int;
      (** virtual channels sufficient to break all cycles with the
          increasing-channel-order discipline: 1 + the maximum number of
          order inversions along any single route (1 means no VCs beyond
          the base channel are needed) *)
}

val channel_dependency_graph : Synthesis.t -> ((int * int) * (int * int)) list
(** All CDG edges (pairs of consecutive channels over all routes),
    deduplicated. *)

val analyze : Synthesis.t -> report

val is_deadlock_free : Synthesis.t -> bool
(** True iff the CDG is acyclic (no virtual channels needed). *)

val route_vcs : ?num_vcs:int -> int list -> int array
(** [route_vcs ?num_vcs path] is the virtual channel of each channel of the
    vertex path [path] (one entry per link, 0-based) under the
    increasing-order discipline: a packet starts on VC 0 and moves to the
    next VC whenever the channel order does not increase.  Within one VC
    the traversed channels are strictly increasing, so each VC's
    restricted CDG is acyclic and the whole routing is deadlock-free with
    [vcs_needed] virtual channels.  Entries are capped at [num_vcs - 1]
    (default: uncapped); a capped assignment no longer carries the
    deadlock-freedom argument.  This is the one implementation of the
    rule: {!analyze}, {!vc_of_hop} and the flit engine's lanes all use it.
    @raise Invalid_argument if [num_vcs < 1]. *)

val vc_of_hop : Synthesis.t -> src:int -> dst:int -> hop:int -> int option
(** The uncapped {!route_vcs} entry of the [hop]-th channel (0-based) of a
    flow's route; [None] without a route or outside it. *)
