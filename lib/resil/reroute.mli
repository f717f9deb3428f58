(** Graceful degradation of routing tables: given an architecture and a
    set of faults, patch its routing table for the surviving topology.

    Routes untouched by the faults are kept verbatim (schedule-derived
    optimality is preserved); routes crossing a failed link or switch fall
    back to a shortest path over the surviving links; flows whose
    endpoints can no longer reach each other are reported as disconnected
    and dropped from the table.  Only the routes the faults hit are
    touched: the degraded architecture shares the rest of the table, and
    {!Noc_core.Synthesis.degrade} checks only the new paths. *)

type outcome = {
  arch : Noc_core.Synthesis.t;
      (** the degraded architecture: surviving topology, patched routes
          (disconnected flows removed) *)
  kept : (int * int) list;  (** flows whose original route survives *)
  rerouted : (int * int) list;  (** flows moved to a shortest-path fallback *)
  disconnected : (int * int) list;
      (** flows with no surviving path (including dead endpoints) *)
}

val surviving_topology :
  Noc_core.Synthesis.t -> faults:Fault.t list -> Noc_graph.Digraph.t
(** The physical topology minus failed links (both directions) and failed
    switches (with all their links). *)

val apply : Noc_core.Synthesis.t -> faults:Fault.t list -> outcome
(** Degrade [arch] under the faults.  The three flow lists are in table
    order (ascending [(src, dst)]) and partition the original flow set. *)
