(** Cycle-accurate network simulation.

    This is the substitute for the paper's Virtex-2 FPGA prototype
    (Section 5.2): the same architectures (customized and mesh) are
    exercised with the same traffic and measured in cycles.

    Model: output-channel arbitration with store-and-forward packets.
    Every directed physical link is a channel that serializes one flit per
    cycle; a packet granted a channel at cycle T occupies it for
    [size_flits] cycles, and its tail lands in the next router at
    [T + link_delay + size_flits - 1], after which the router spends
    [router_delay] cycles before the packet contends for its next channel.
    Channels grant waiting packets in FIFO order (ties by packet id), and
    channels are scanned in a fixed lexicographic order, so simulations are
    fully deterministic.  Buffers are unbounded: protocol deadlock cannot
    occur in the simulator (deadlock risk of a routing function is analyzed
    statically by {!Noc_core.Deadlock}), which matches prototype NoCs with
    conservatively sized FIFOs.

    {b Fault injection.}  Links and switches can fail (and be repaired)
    mid-simulation, immediately or at a scheduled cycle.  The network
    degrades gracefully instead of hanging:

    - packets queued at a surviving router whose next hop died {e replan}
      with a shortest path over the surviving topology;
    - packets whose flits are on a failed wire, or buffered inside a failed
      switch, are lost and {e retried from the source NI} with bounded
      exponential backoff ({!fault_policy});
    - permanently undeliverable packets (no surviving path and no pending
      repair, dead endpoint, or retry budget exhausted) are recorded as
      {!drop}s, so {!run_until_idle} still terminates and every injected
      packet is classified as delivered or dropped. *)

type config = {
  router_delay : int;  (** cycles spent in each router, >= 1 *)
  link_delay : int;  (** wire latency of a link, >= 1 *)
  flit_bits : int;  (** physical link width *)
}

val default_config : config
(** [router_delay = 1], [link_delay = 1], [flit_bits = 8]. *)

type fault_policy = {
  max_retries : int;
      (** source-NI retransmissions per packet before it is dropped *)
  backoff_base : int;
      (** cycles of delay before the first retransmission, >= 1 *)
  backoff_cap : int;
      (** ceiling of the exponential backoff (doubles per retry) *)
}

val default_fault_policy : fault_policy
(** [max_retries = 8], [backoff_base = 2], [backoff_cap = 64]. *)

(** Routing policy (the paper's Section 6 lists "adaptive or stochastic
    routing strategies" as future work; both are provided): *)
type policy =
  | Fixed
      (** follow the architecture's precomputed route (deterministic
          routing: XY on the mesh, schedule-derived on customized
          topologies) — the default and the paper's setting *)
  | Adaptive
      (** minimal adaptive: at each router, among the neighbors that
          reduce the topology distance to the destination, pick the output
          channel with the least backlog (free beats busy, then shorter
          queue, then smaller node id) *)
  | Oblivious of Noc_util.Prng.t
      (** minimal stochastic: uniform choice among distance-reducing
          neighbors, deterministic for a given PRNG *)

type delivery = Packet.delivery = { packet : Packet.t; delivered_at : int }

(** Why a packet was dropped: *)
type drop_reason =
  | Link_failed  (** lost on a failing link with no retry budget left *)
  | Switch_failed  (** source, destination or holding switch is down *)
  | No_route  (** no surviving path and no repair pending *)
  | Retries_exhausted  (** the source NI gave up retransmitting *)

type drop = { packet : Packet.t; dropped_at : int; reason : drop_reason }

val pp_drop_reason : Format.formatter -> drop_reason -> unit

type t

val create :
  ?config:config ->
  ?policy:policy ->
  ?fault_policy:fault_policy ->
  Noc_core.Synthesis.t ->
  t
(** A fresh network over the given architecture at cycle 0.  Under
    [Adaptive] and [Oblivious] policies packets still require the flow to
    have a route in the architecture (reachability), but the path taken is
    chosen hop by hop. *)

val now : t -> int

val config : t -> config

val inject :
  ?tag:int -> ?payload:Bytes.t -> ?size_flits:int -> t -> src:int -> dst:int -> int
(** Queues a packet at its source's local port at the current cycle and
    returns its id.  The route comes from the architecture.
    [size_flits] defaults to 1.  Injecting at a currently-failed source or
    towards a failed destination records an immediate [Switch_failed] drop.
    @raise Invalid_argument if the architecture has no route
    [src -> dst]. *)

val step : t -> unit
(** Advance one cycle: due fault events strike, then packets become ready
    at routers, then channels arbitrate. *)

val pending : t -> int
(** Packets injected but neither delivered nor dropped. *)

val stranded : t -> Packet.t list
(** The still-pending packets themselves (in id order) — the ones a
    [`Limit] verdict is counting.  Empty after an [`Idle] return: every
    packet has been classified as delivered or dropped. *)

val run_until_idle : ?max_cycles:int -> t -> [ `Idle | `Limit of int ]
(** Steps until no packet is in flight (returning at the cycle the last
    delivery happened... precisely: the first cycle at which the network is
    empty) or until [max_cycles] total steps (default 1_000_000).
    [`Limit n] reports the [n = pending t] packets still in flight; see
    {!stranded} for their identities. *)

(** {2 Fault injection} *)

val fail_link : t -> int -> int -> unit
(** [fail_link t u v] takes the (undirected) physical link [u-v] down now.
    Queued packets at either endpoint replan; packets on the wire are
    retried from their source.  Idempotent while the link is down.
    @raise Invalid_argument if [u-v] is not a link of the architecture. *)

val fail_switch : t -> int -> unit
(** [fail_switch t s] takes router [s] (and all its links) down now.
    Packets buffered in [s] are retried from their sources; packets whose
    source or destination is [s] are dropped.
    @raise Invalid_argument if [s] is not a node of the architecture. *)

val repair_link : t -> int -> int -> unit
(** Brings a failed link back up now (no effect if it is up). *)

val repair_switch : t -> int -> unit
(** Brings a failed switch back up now (no effect if it is up). *)

val fail_link_at : t -> at:int -> ?repair_at:int -> int -> int -> unit
(** Schedules a link failure for cycle [at] (applied immediately when [at]
    is not in the future), with an optional repair at [repair_at]. *)

val fail_switch_at : t -> at:int -> ?repair_at:int -> int -> unit
(** Schedules a switch failure, as {!fail_link_at}. *)

val link_failed : t -> int -> int -> bool
val switch_failed : t -> int -> bool

val failed_links : t -> (int * int) list
(** Currently-failed links, normalized [(min, max)], sorted. *)

val failed_switches : t -> int list
(** Currently-failed switches, sorted. *)

val live_topology : t -> Noc_graph.Digraph.t
(** The architecture topology minus currently-failed links/switches — what
    replanning routes over. *)

val deliveries : t -> delivery list
(** All deliveries so far, in delivery order. *)

val drain_deliveries : t -> delivery list
(** Deliveries since the previous call (or since creation), in delivery
    order; clears the drain buffer but not the cumulative statistics. *)

val drops : t -> drop list
(** All packets dropped so far, in drop order. *)

val dropped_count : t -> int

val retries : t -> int
(** Total source-NI retransmissions performed so far. *)

val arch : t -> Noc_core.Synthesis.t
(** The architecture the network was built over. *)

val route_taken : t -> int -> int list option
(** The path a delivered packet actually traversed (equals its planned
    route under [Fixed] when no fault forced a replan); [None] for unknown
    or undelivered ids. *)

(** Activity counters for energy accounting: *)

val buffer_flit_cycles : t -> int
(** Total flit-cycles spent waiting in router queues (occupancy integral,
    the buffer-retention activity term). *)

val flit_hops : t -> int
(** Total flit-link traversals so far. *)

val link_flits : t -> int Noc_graph.Digraph.Edge_map.t
(** Flits carried per directed link. *)

val switch_flits : t -> int Noc_graph.Digraph.Vmap.t
(** Flits processed per router (arrivals and injections count; each packet
    visit contributes [size_flits]). *)

val contention_events : t -> int
(** Times a packet requested an output channel that was mid-transmission
    or already had waiting packets — i.e. guaranteed to stall at least one
    cycle.  The simulator's congestion signal. *)

val delivered_count : t -> int
(** Packets delivered so far. *)

val metrics : t -> (string * float) list
(** Every activity counter as a flat metric list: scalar counters
    ([cycles], [injected], [delivered], [dropped], [in_network],
    [flit_hops], [buffer_flit_cycles], [queued_flits],
    [contention_events], [retries], [faults_applied], [repairs_applied],
    [failed_links], [failed_switches]) followed by per-router
    [router.<v>.flits] and per-link [link.<u>-<v>.flits] entries, each
    group sorted by name.  Feeds [nocsynth simulate --metrics] and the
    observability layer. *)
