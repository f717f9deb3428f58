(** One façade over the two simulation fidelities.

    {!Network} (coarse store-and-forward, fault-aware) and {!Flitsim}
    (cycle-accurate VOQ routers with credits, serialization and
    virtual-channel lanes) have deliberately parallel APIs.  This module
    packages them behind one dispatch type so benchkit, resilience
    campaigns, sweeps and the CLI select fidelity per run
    ([nocsynth simulate --engine coarse|flit]) instead of hard-coding one
    model.

    Verdicts are unified: the coarse engine cannot deadlock (per-hop
    buffering with retries), so its [`Limit] maps to {!Limit}; the flit
    engine reports genuine circular waits as {!Deadlock}. *)

type kind = Coarse | Flit

val all_kinds : kind list
(** In increasing fidelity order: [Coarse; Flit]. *)

val kind_name : kind -> string
(** ["coarse"] / ["flit"]. *)

val kind_of_name : string -> kind option

type t

val create :
  ?coarse_config:Network.config ->
  ?flit_config:Flitsim.config ->
  kind ->
  Noc_core.Synthesis.t ->
  t
(** Only the config matching [kind] is consulted; the other is accepted
    so callers can thread one record of knobs around. *)

val kind : t -> kind
val name : t -> string

val now : t -> int

val inject :
  ?tag:int -> ?payload:Bytes.t -> ?size_flits:int -> t -> src:int -> dst:int -> int
(** [size_flits] defaults to 1 on every engine.
    @raise Invalid_argument if the architecture has no route. *)

val step : t -> unit
val pending : t -> int

type verdict = Idle | Deadlock | Limit of int
(** [Limit n]: the cycle budget ran out with [n] packets outstanding. *)

val pp_verdict : Format.formatter -> verdict -> unit

val verdict_name : verdict -> string

val run_until_idle : ?max_cycles:int -> t -> verdict

val deliveries : t -> Packet.delivery list
(** In delivery order, on either engine. *)

val summary : t -> Stats.summary

val flit_hops : t -> int

val metrics : t -> (string * float) list
(** The underlying engine's metric snapshot (keys are engine-specific). *)

val vc_truncated : t -> bool
(** [true] iff this is a flit engine with fewer lanes than the static
    analysis prescribes ({!Flitsim.vc_truncated}) — a [Deadlock] verdict
    is then attributable to under-provisioned lanes rather than the
    architecture.  Always [false] for the coarse engine. *)

val coarse : t -> Network.t option
(** The underlying coarse engine, for callers that need its fault API or
    energy accounting; [None] for the flit engine. *)

val flitsim : t -> Flitsim.t option
