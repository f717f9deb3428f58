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

    This module owns the {e state} — queues, arbiter pointers, link
    occupancy — and the arbitration primitive; the clocking discipline
    (what moves in which phase of a cycle) lives in {!Flitsim}. *)

type flit = {
  packet : Packet.t;
  lanes : int array;
      (** the packet's virtual channel on each link of its route
          ([lanes.(i)] for the link [route.(i) -> route.(i+1)]), shared
          by all its flits *)
  idx : int;  (** 0-based flit index; [idx = size_flits - 1] is the tail *)
  mutable hop : int;
      (** index into [packet.route] of the router currently holding (or
          about to receive) the flit *)
}

type in_key = Local | From of int
(** Input port: the router's own network interface, or the link from an
    upstream router. *)

type out_key = Eject | To of int
(** Output port: the router's ejection (sink) port, or the link to a
    downstream router. *)

type entry = { flit : flit; mutable ready_at : int }
(** A buffered flit; [ready_at] is the first cycle the switch may move it
    (models the router's internal pipeline latency). *)

type voq = {
  input : in_key;
  output : out_key;
  vc : int;  (** the lane: the virtual channel of the [input] link *)
  q : entry Queue.t;  (** bounded by the engine at [fifo_depth] *)
  credits : Credit.t;
      (** the credit counter the {e upstream} sender of [input] consults
          before putting a flit on the wire towards this queue; unused
          (always full) for [Local] inputs, which are bounded by a direct
          occupancy check instead *)
}

type port = {
  dest : out_key;
  voqs : voq array;
      (** every VOQ of this router targeting [dest], in the fixed
          arbitration order [Local], then [From u] by ascending [u], each
          input's lanes by ascending [vc] *)
  mutable rr : int;  (** round-robin pointer into [voqs] *)
  mutable busy_until : int;
      (** link serialization: the earliest cycle a new flit may start
          crossing the link (a flit occupies it for [phits_per_flit]
          cycles) *)
  mutable in_flight : (flit * int) option;
      (** the flit currently on the wire and its arrival cycle *)
}

type t = {
  node : int;
  ni : entry Queue.t;
      (** unbounded source queue: packets wait in the network interface,
          not in the fabric *)
  outputs : port array;  (** fixed order: [Eject] first, then [To v] by ascending [v] *)
}

val create :
  node:int -> preds:int list -> succs:int list -> depth:int -> num_vcs:int -> t
(** A router with one input per element of [Local :: preds] and one output
    per element of [Eject :: succs]; every (input, output) pair gets a VOQ
    of capacity [depth] and a matching credit counter per lane — [num_vcs]
    lanes for a link input, one for [Local]. *)

val port : t -> out_key -> port
(** @raise Not_found if the router has no such output. *)

val find_voq : t -> input:in_key -> output:out_key -> vc:int -> voq
(** @raise Not_found if the router has no such queue. *)

val arbitrate : port -> (voq -> bool) -> voq option
(** [arbitrate p eligible] scans [p.voqs] round-robin starting just after
    the last grant and returns the first queue [eligible] accepts,
    advancing the pointer past it (pointer moves only on a grant, so
    un-granted requests keep their priority). *)

val buffered : t -> int
(** Flits currently in this router's VOQs (NI queue excluded). *)

val ni_buffered : t -> int
