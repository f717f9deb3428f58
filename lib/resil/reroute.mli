(** Graceful degradation of routing tables: given an architecture and a
    set of faults, rebuild the routing tables over the surviving topology.

    Routes untouched by the faults are kept verbatim (schedule-derived
    optimality is preserved); routes crossing a failed link or switch fall
    back to a shortest path over the surviving links; flows whose
    endpoints can no longer reach each other are reported as disconnected
    and dropped from the table.  The degraded architecture is re-analyzed
    for deadlock — a rerouted table can introduce channel-dependency
    cycles the original schedule-derived table avoided, and callers
    deciding whether a degraded mode is safe to run need that verdict. *)

type outcome = {
  arch : Noc_core.Synthesis.t;
      (** the degraded architecture: surviving topology, patched routes
          (disconnected flows removed) *)
  kept : (int * int) list;  (** flows whose original route survives *)
  rerouted : (int * int) list;  (** flows moved to a shortest-path fallback *)
  disconnected : (int * int) list;
      (** flows with no surviving path (including dead endpoints) *)
  deadlock : Noc_core.Deadlock.report;
      (** Dally & Seitz analysis of the degraded routing tables *)
}

val surviving_topology :
  Noc_core.Synthesis.t -> faults:Fault.t list -> Noc_graph.Digraph.t
(** The physical topology minus failed links (both directions) and failed
    switches (with all their links). *)

val apply : Noc_core.Synthesis.t -> faults:Fault.t list -> outcome
(** Degrade [arch] under the faults.  All three flow lists are sorted and
    partition the original flow set. *)
