(** The chaos harness: hammer one daemon with a seeded adversarial request
    stream and verify the crash-only contract survives.

    The stream is composed by exact counts, not coin flips: 24% malformed
    inputs (garbage bytes, self-loops, oversized ACGs, unknown libraries),
    12% starved budgets (dead-on-arrival zero deadlines and 1 ms anytime
    deadlines), 6% fault-injected requests (the daemon's [fault_hook] seam
    is armed for exactly that request, so the compute path raises), above
    the gate's floors (20% / 10% / 5%); the rest are well-formed requests
    drawn from a fixed pool (with exact and vertex-permuted duplicates) —
    all seeded-shuffled and driven through the daemon in randomly sized
    batches, so the [max_inflight] admission bound sheds the overflow of
    large bursts.

    The contract checked per request: the daemon never dies, every request
    gets exactly one typed reply, the reply renders to parseable JSON, its
    error class is the one its spec predicts (shed position beats spec),
    and the well-formed subset keeps its cache behaviour — a repeated key
    must hit with the first miss's exact bytes, a fresh key must miss —
    even with faults firing around it. *)

type stats = {
  requests : int;
  replies : int;  (** typed replies produced; the gate demands [= requests] *)
  ok : int;
  deaths : int;  (** dispatches that raised past the daemon; gate demands 0 *)
  bad_request : int;
  over_budget : int;
  shed : int;
  internal : int;
  class_mismatches : int;  (** replies whose class differed from the spec's *)
  unparsed_replies : int;  (** wire lines that failed to parse back *)
  hit_consistent : bool;
      (** the well-formed subset hit exactly when its key had been served *)
  byte_identical : bool;  (** every well-formed hit returned the first miss's bytes *)
  well_formed : int;
  well_formed_hits : int;
  well_formed_hit_rate : float;
  malformed_frac : float;
  starved_frac : float;
  injected_frac : float;
  wall_s : float;
  rps : float;
}

val run :
  ?seed:int ->
  ?requests:int ->
  ?max_inflight:int ->
  ?cache_capacity:int ->
  ?pool:int ->
  ?wf_timeout_s:float ->
  ?observe:Noc_obs.Obs.t ->
  unit ->
  stats
(** [run ()] drives [requests] (default 1000, seed 42) chaos requests
    through a fresh daemon configured with [max_inflight] (default 8),
    [max_cores = 32], a 4 KiB request-size limit and a 2 s deadline cap.
    [pool] (default 16) well-formed base ACGs come from the seeded fuzz
    generator; [wf_timeout_s] (default 0.25) is their search deadline.
    Deterministic for a fixed seed up to wall-clock-dependent search
    outcomes, which the checked contract does not depend on. *)

val gate : stats -> (unit, string) result
(** The acceptance gate: zero deaths, a typed parseable reply per request,
    expected error classes, preserved well-formed cache behaviour, and mix
    floors (>= 20% malformed, >= 10% starved, >= 5% injected). *)

val pp : Format.formatter -> stats -> unit
val to_json : stats -> Noc_obs.Obs.Json.t
