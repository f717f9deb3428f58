(** Credit counters for link-level backpressure.

    A credit counter lives with the {e upstream} side of a link and mirrors
    the free space of one downstream virtual-output queue: the sender
    {!take}s a credit when it puts a flit on the wire, and the receiver
    returns it (one router-to-router wire cycle later) when the flit
    leaves the queue.  As long as every send is gated on {!take}, the
    downstream FIFO can never overflow — the classic credit-based
    flow-control invariant

    [available + in-queue + on-wire + returns-in-flight = capacity]

    which {!val:balanced} lets callers assert. *)

type t

val create : capacity:int -> t
(** All credits available.  @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int

val available : t -> int

val take : t -> bool
(** Consume one credit; [false] (and no change) when none are available —
    the sender must stall. *)

val put : t -> unit
(** Return one credit.  @raise Invalid_argument if the counter would
    exceed its capacity — a protocol bug, not a runtime condition. *)

val refill : t -> unit
(** Makes every credit available again, as {!create} left it. *)

val balanced : t -> outstanding:int -> bool
(** [balanced c ~outstanding] checks the conservation invariant:
    [available c + outstanding = capacity c], where [outstanding] counts
    flits in the downstream queue, on the wire, and credit returns still
    in flight. *)
