(** Cycle-accurate flit-level simulation over {!Router} pipelines.

    The one simulation engine ({!Engine} names its presets): it clocks
    every flit through per-input virtual output queues, a round-robin
    switch allocator, credit-based link backpressure, and link
    serialization — the effects (head-of-line blocking, buffer depth,
    serialization stalls) that decide where the saturation knee of a
    synthesized architecture really sits.  A packet's flits spread over
    several routers when it is longer than one queue, so this is wormhole
    switching at flit granularity.

    {2 Microarchitecture}

    Each topology vertex gets a {!Router.t}.  A flow's route is resolved
    once, on its first {!inject}, into a hop plan: the VOQ (and lane) its
    flits occupy at each router, which every later move reads by index.
    A cycle runs in fixed phases, in this order:

    + {b credit returns} scheduled for this cycle land (one wire cycle
      after the downstream queue freed the slot);
    + {b link arrivals}: a flit whose serialization finished enters the
      downstream VOQ chosen by its route, becoming switch-eligible
      [router_delay] cycles later (the router pipeline);
    + {b ejection}: every router's sink port consumes one ready flit,
      granted round-robin over the VOQs targeting it; a packet is
      delivered when its tail flit ejects;
    + {b switch allocation}: every free link output grants one ready flit
      round-robin among its VOQs (the same grant loop as ejection), gated
      on a credit for the downstream queue; the link stays busy for
      [phits_per_flit] cycles
      ([ceil (flit_bits / phit_bits)] — byte-serial links serialize each
      flit into phits);
    + {b injection}: each source NI moves at most one flit per cycle into
      its local VOQ, space permitting (NI queues are unbounded — packets
      wait at the source, not in the fabric).

    Flits of one packet follow identical VOQs and FIFO links, so they
    arrive in order; worms from different packets {e do} interleave on
    shared links.

    Ports with no queued flit are skipped, as are the arrival phase while
    no flit is on a wire and the injection phase while every NI is empty.
    The skip is exact: an empty port grants nothing, and a round-robin
    pointer moves only on a grant.

    {2 Documented latency bound}

    Uncontended, a packet of [n] flits over [h >= 1] hops with
    [p = phits_per_flit] and [rd = router_delay] delivers at

    [latency = 1 + rd + h*(rd + p) + (n - 1)*p]

    cycles after injection (zero-hop flows, served entirely by the local
    ejection port, take [1 + rd + (n - 1)]).  The bound is exact provided
    [fifo_depth >= 1 + ceil ((rd + 1) / p)] — enough buffer to cover the
    credit round trip, the standard sizing rule for credit-based flow
    control; shallower FIFOs insert credit-stall bubbles and only
    lengthen latency (the default config satisfies the rule).  With
    [rd = 1] and [p = 1] the bound reads [2h + n + 1], below
    store-and-forward; the suite in [test/suite_flit.ml] holds the engine
    to it.

    {2 Conservation}

    Every cycle, [injected_flits = delivered_flits + in_flight_flits]
    (NI + VOQ + wire occupancy); {!conservation_ok} exposes the check and
    the qcheck harness asserts it after every step.

    {2 Virtual-channel lanes}

    Routes are fixed and stalled flits hold buffer slots, so cyclic
    channel dependencies can genuinely deadlock the fabric;
    {!run_until_idle} detects the fixpoint and reports [`Deadlock].  Paper
    §4.5 removes such cycles with virtual channels, and so does this
    engine: every link input of a router keeps [num_vcs] lanes per output
    ({!Router}), and a packet holds, on each link of its route, the
    virtual channel {!Noc_core.Deadlock.route_vcs} assigns (the
    increasing-channel-order rule, capped at [num_vcs - 1]).  With the
    [vcs_needed] lanes {!Noc_core.Deadlock.analyze} prescribes, buffer
    dependencies follow strictly increasing (vc, channel) pairs and the
    fabric cannot deadlock; with fewer, {!vc_truncated} says so.

    One lane is the default and is already enough for every acyclic
    channel dependency graph.  It also splits some cyclic ones.  A queue
    is keyed by its (input, output) channel pair, so it waits only on the
    queue of the next pair of the same route.  On a 2-hop route that next
    queue is an ejection queue, which always drains, so a ring of 2-hop
    routes drains at one lane although its dependency graph is cyclic.
    Routes of 3 hops or more chain transit queues and can close a cycle. *)

type config = {
  fifo_depth : int;  (** VOQ capacity in flits, >= 1 *)
  flit_bits : int;
  phit_bits : int;
      (** physical link width; a flit crosses a link in
          [ceil (flit_bits / phit_bits)] cycles *)
  router_delay : int;  (** buffer-write to switch-eligible pipeline depth, >= 1 *)
  num_vcs : int;  (** virtual-channel lanes per link input, >= 1 *)
}

val default_config : config
(** [fifo_depth = 4], [flit_bits = 32], [phit_bits = 8] (byte-serial:
    4 phits per flit), [router_delay = 1], [num_vcs = 1]. *)

val phits_per_flit : config -> int

(** Routing policy (the paper's Section 6 lists "adaptive or stochastic
    routing strategies" as future work): *)
type policy =
  | Fixed
      (** follow the architecture's precomputed route (XY on the mesh,
          schedule-derived on customized topologies) — the default and
          the paper's setting *)
  | Oblivious of Noc_util.Prng.t
      (** minimal stochastic: each packet draws one minimal path over the
          topology at injection, hop by hop uniformly among the
          neighbours one hop closer to its destination, deterministic for
          a given PRNG; its lanes are {!Noc_core.Deadlock.route_vcs} on
          that path.  The flow must still have a route in the
          architecture. *)

type delivery = Packet.delivery = { packet : Packet.t; delivered_at : int }

type t

val create : ?config:config -> ?policy:policy -> Noc_core.Synthesis.t -> t
(** [policy] defaults to [Fixed].
    @raise Invalid_argument on a non-positive config field. *)

val reset : t -> Noc_core.Synthesis.t -> unit
(** [reset t arch] reuses [t]'s fabric for a new run over [arch]: it
    empties every NI, queue and wire, refills every credit, puts every
    round-robin pointer back, zeroes the cycle and every counter, and
    adopts [arch]'s routes.  A flow whose route [arch] leaves unchanged
    keeps its hop plan; the others are resolved again on their next
    {!inject}.  The policy carries over, an [Oblivious] generator in the
    state the last run left it.

    [arch]'s topology must be a subgraph of the one [t] was created on.
    The routers, ports and queues [arch] no longer uses stay empty, and a
    round-robin scan skips an empty queue, so the run is the one a
    {!create} on [arch] with the same config and policy would make: same
    cycles, deliveries and counters.
    @raise Invalid_argument from {!inject} when a route crosses a link
    the engine lacks. *)

val now : t -> int
val config : t -> config

val arch : t -> Noc_core.Synthesis.t
(** The architecture the engine last adopted: {!create}'s, then each
    {!reset}'s. *)

val inject :
  ?tag:int -> ?payload:Bytes.t -> ?size_flits:int -> t -> src:int -> dst:int -> int
(** Queues a packet ([size_flits] defaults to 1) at its source NI at the
    current cycle; returns the packet id.  The packet's [route] is the
    path its flits take.
    @raise Invalid_argument if the architecture has no route, or (after
    a {!reset}) the route crosses a link the engine lacks. *)

val step : t -> unit

val pending : t -> int
(** Injected but not yet fully ejected packets. *)

val run_until_idle : ?max_cycles:int -> t -> [ `Idle | `Deadlock | `Limit of int ]
(** Steps until the fabric drains.  [`Deadlock] is returned the moment a
    cycle moves no flit while no link transfer and no credit return is in
    flight — with fixed routes that state is a fixpoint, so waiting longer
    cannot help.  [`Limit pending] means the cycle budget ran out with
    [pending] packets still in progress. *)

val deliveries : t -> delivery list
(** In ejection order. *)

val drain_deliveries : t -> delivery list
(** The deliveries since the previous call (or since creation), in
    ejection order; {!deliveries} keeps them all. *)

val injected_flits : t -> int
val delivered_flits : t -> int

val in_flight_flits : t -> int
(** Flits buffered in NIs and VOQs plus flits on wires. *)

val conservation_ok : t -> bool
(** [injected_flits = delivered_flits + in_flight_flits]; holds after
    every [step] unless the engine itself is broken. *)

val flit_hops : t -> int
(** Total flit-link traversals. *)

val buffer_flit_cycles : t -> int
(** Sum over cycles of VOQ occupancy (buffering energy proxy). *)

val link_flits : t -> int Noc_graph.Digraph.Edge_map.t
(** Flits that arrived over each link, for links with at least one; they
    sum to {!flit_hops}.  Built on each call. *)

val switch_flits : t -> int Noc_graph.Digraph.Vmap.t
(** Flits each router's switch moved onto a link or into its sink, for
    routers with at least one; once drained they sum to
    [flit_hops + delivered_flits].  Built on each call. *)

val vc_truncated : t -> bool
(** [num_vcs < (Noc_core.Deadlock.analyze arch).vcs_needed]: the lanes are
    fewer than the static analysis prescribes, so the deadlock-freedom
    argument does not cover this run and a [`Deadlock] verdict is
    attributable to under-provisioned lanes.  Computed on each call. *)

val metrics : t -> (string * float) list
(** Flat snapshot: cycles, injected/delivered/pending packets, flit
    totals, hops, buffer occupancy integral. *)
