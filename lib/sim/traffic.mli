(** Synthetic traffic generation.

    Flows mirror the ACG: each ACG edge becomes a flow whose injection rate
    is proportional to its bandwidth requirement.  Injection is Bernoulli
    per cycle (a discrete Poisson-like process), deterministic under the
    given PRNG. *)

type flow = { src : int; dst : int; size_flits : int; rate : float }
(** [rate] = expected injections per cycle, in [0, 1]. *)

val flows_of_acg : ?size_flits:int -> rate_scale:float -> Noc_core.Acg.t -> flow list
(** One flow per ACG edge with [rate = rate_scale * b(e) / max_b] (all
    zero-bandwidth edges get [rate_scale] — uniform load).  [size_flits]
    defaults to 1. *)

val run :
  rng:Noc_util.Prng.t -> net:Engine.t -> flows:flow list -> cycles:int -> unit -> Engine.verdict
(** Drives the engine for [cycles] cycles of random injection, then lets
    in-flight packets drain (at most 100_000 cycles) and returns the drain
    verdict; the deliveries stay on the engine. *)

val offered_load : flow list -> float
(** Sum of flow rates: expected packets injected per cycle. *)
