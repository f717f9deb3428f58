(** One cycle-accurate VOQ router: the building block of {!Flitsim}.

    The microarchitecture follows the classic input-queued router used by
    NoC prototypes of the paper's era (and by the reference RTL designs
    this engine is validated against): every input port — the local
    network interface plus one per incoming link — keeps a {e virtual
    output queue} (VOQ) per output port, so a flit blocked on one output
    never head-of-line-blocks traffic for another.  Each output port runs
    an independent round-robin arbiter over the VOQs that target it, and
    sends are gated on credit-based backpressure: the output port holds a
    {!Credit.t} mirroring the free space of the downstream VOQ its flits
    will land in (see {!Flitsim} for the wiring).

    Each link input's VOQs are further split into virtual-channel
    {e lanes}: the queue a flit enters is keyed by (input, output, vc),
    where [vc] is the virtual channel its packet holds on the link it
    arrived over.  Lanes are separate buffers with separate credits, so a
    packet that moved to a higher VC never waits behind one on a lower VC
    of the same link.  The local input has a single lane (no link crossed
    yet); with one lane per link the router is a plain VOQ router.

    This module owns the {e state}: queues, arbiter pointers, link
    occupancy.  Arbitration and the clocking discipline (what moves in
    which phase of a cycle) live in {!Flitsim}'s grant loop. *)

type in_key = Local | From of int
(** Input port: the router's own network interface, or the link from an
    upstream router. *)

type out_key = Eject | To of int
(** Output port: the router's ejection (sink) port, or the link to a
    downstream router. *)

type flit = {
  packet : Packet.t;
  plan : voq array;
      (** the hop plan of the packet's flow: [plan.(h)] is the queue the
          flit occupies at router [packet.route.(h)], shared by every flit
          of the flow *)
  idx : int;  (** 0-based flit index; [idx = size_flits - 1] is the tail *)
  mutable hop : int;
      (** index into [packet.route] of the router currently holding (or
          about to receive) the flit *)
  mutable ready_at : int;
      (** in a VOQ, the first cycle the switch may move the flit (models the
          router's internal pipeline latency); on a wire, its arrival
          cycle.  A flit sits in one place at a time, so one field serves
          both. *)
}

and voq = {
  input : in_key;
  vc : int;  (** the lane: the virtual channel of the [input] link *)
  q : flit Queue.t;  (** bounded by the engine at [fifo_depth] *)
  credits : Credit.t;
      (** the credit counter the {e upstream} sender of [input] consults
          before putting a flit on the wire towards this queue; unused
          (always full) for [Local] inputs, which are bounded by a direct
          occupancy check instead *)
  queued : int ref;  (** the owning port's {!port.queued} *)
}

type port = {
  dest : out_key;
  voqs : voq array;
      (** every VOQ of this router targeting [dest], in the fixed
          arbitration order [Local], then [From u] by ascending [u], each
          input's lanes by ascending [vc] *)
  mutable rr : int;  (** round-robin pointer into [voqs] *)
  queued : int ref;
      (** flits in [voqs], shared with each of them so an enqueue through
          a hop plan can count without finding the port: the engine skips
          a port while it is zero *)
  mutable wire : flit;
      (** the flit crossing the link ([phits_per_flit] cycles), or {!idle}
          when the link is free *)
}

type t = {
  node : int;
  ni : flit Queue.t;
      (** unbounded source queue: packets wait in the network interface,
          not in the fabric *)
  outputs : port array;  (** fixed order: [Eject] first, then [To v] by ascending [v] *)
}

val idle : flit
(** The placeholder of a free wire; compare with [==]. *)

val create :
  node:int -> preds:int list -> succs:int list -> depth:int -> num_vcs:int -> t
(** A router with one input per element of [Local :: preds] and one output
    per element of [Eject :: succs]; every (input, output) pair gets a VOQ
    of capacity [depth] and a matching credit counter per lane — [num_vcs]
    lanes for a link input, one for [Local]. *)

val clear : t -> unit
(** Empties the router as {!create} left it: NI and queues empty, wires
    idle, arbiter pointers at [Local], every credit available. *)

val find_voq : t -> input:in_key -> output:out_key -> vc:int -> voq
(** @raise Not_found if the router has no such queue. *)
