(** Offered-load sweeps: the classic latency-vs-load characterization.

    For each injection rate, the network is warmed up and measured under
    Bernoulli traffic on a fixed flow set; the resulting curve shows the
    zero-load latency plateau and the saturation knee, which is where a
    customized architecture and a mesh separate most visibly. *)

type point = {
  rate : float;  (** offered injection rate per flow (packets/cycle) *)
  offered : float;  (** total offered load (packets/cycle, all flows) *)
  delivered : int;
  avg_latency : float;
  throughput : float;  (** delivered flits per cycle over the makespan *)
  drained : bool;
      (** the drain ended [Idle]; [false] after a deadlock or the drain
          bound, when [delivered] and [avg_latency] cover only the packets
          that got out *)
}

val latency_vs_load :
  ?engine:Engine.kind ->
  rng:Noc_util.Prng.t ->
  arch:Noc_core.Synthesis.t ->
  acg:Noc_core.Acg.t ->
  ?size_flits:int ->
  ?cycles:int ->
  rates:float list ->
  unit ->
  point list
(** One fresh network per rate; flows are the ACG's edges with equal rates
    ([Traffic.flows_of_acg] scaling is bypassed — the sweep sets the rate
    directly).  [cycles] (default 2000) of injection, then a bounded drain.
    Deterministic: the PRNG is split per rate.  [engine] (default
    {!Engine.Coarse}) picks the preset, run as it is (one lane); a
    saturated run that deadlocks or hits the drain bound reports the
    packets it delivered with [drained = false]. *)

val saturation_rate : point list -> float option
(** First rate whose run did not drain or whose average latency exceeds 4x
    the baseline latency — a simple knee estimate.  The baseline is the
    first point that actually delivered packets (a leading zero-delivery
    point reports [avg_latency = 0.] and must not fabricate a baseline);
    [None] if every run drained and the curve never saturates. *)

val to_series : point list -> (float * float) list
(** (offered load, average latency) pairs for plotting. *)
