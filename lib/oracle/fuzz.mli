(** Differential fuzzing harness for the synthesis pipeline.

    Random ACGs (several structural families, random volumes and
    bandwidths, at most 8 cores) are run through a fixed catalog of named
    {e properties}: each property exercises one optimized production path
    against its brute-force oracle ({!Exact}, {!Bisection}, {!Iso},
    {!Recost}, {!Cdg}) or checks a paper invariant (Eq. 2 edge partition,
    route validity, oracle-cost dominance).  A failing case is shrunk —
    greedily dropping edges, then isolated vertices, while the property
    keeps failing — and can be persisted to a crash corpus directory that
    {!replay} (and the test suite) re-runs as regression cases.

    Everything is deterministic: case [i] of a run with seed [s] is
    generated from a PRNG seeded with [s + i], and properties derive any
    auxiliary randomness from the ACG itself, so a saved seed reproduces
    the exact failure. *)

type failure = {
  property : string;
  case_seed : int;  (** PRNG seed that regenerates the original case *)
  detail : string;  (** what diverged, on the shrunk case *)
  acg : Noc_core.Acg.t;  (** the shrunk counterexample *)
  shrink_steps : int;  (** edges/vertices removed while still failing *)
}

type report = {
  cases : int;
  properties : int;  (** properties evaluated per case *)
  failures : failure list;
  shrink_steps : int;
  elapsed_s : float;
}

val property_names : string list
(** The catalog, in run order: ["decompose-oracle"; "bisection-oracle";
    "vf2-naive"; "cost-recompute"; "deadlock-cdg"; "edge-partition";
    "routes-valid"; "reroute-avoids-faults"; "fallback-gap";
    "flit-energy"; "engine-reset"]. *)

val gen_acg : rng:Noc_util.Prng.t -> Noc_core.Acg.t
(** One random case: 3–8 cores, a structural family drawn from
    Erdős–Rényi / DAG / planted-primitive / G(n,m), volumes in [1, 256],
    bandwidths in [0, 0.5). *)

val check :
  ?library:Noc_primitives.Library.t ->
  string ->
  Noc_core.Acg.t ->
  (unit, string) result
(** Run one named property; any escaped exception is reported as
    [Error].  Unknown names are an [Error] too. *)

val shrink :
  ?library:Noc_primitives.Library.t ->
  property:string ->
  Noc_core.Acg.t ->
  Noc_core.Acg.t * int
(** Greedy 1-edge/1-vertex minimization: the returned ACG still fails the
    property (or is the input if nothing smaller fails), plus the number
    of successful removal steps. *)

val run :
  ?observe:Noc_obs.Obs.t ->
  ?library:Noc_primitives.Library.t ->
  ?properties:string list ->
  seed:int ->
  cases:int ->
  unit ->
  report
(** Fuzz [cases] random ACGs.  After a property fails once it is skipped
    for the remaining cases (one shrunk counterexample per property per
    run).  When [observe] is enabled, publishes [fuzz.cases],
    [fuzz.checks], [fuzz.failures] and [fuzz.shrink_steps] counters. *)

val save_failure : dir:string -> failure -> string
(** Persist a shrunk counterexample as [<property>-seed<seed>.acg] under
    [dir] (created if missing): comment headers carrying the property,
    seed and detail, then the ACG in {!Noc_core.Acg_io} format.  Returns
    the path written. *)

val replay :
  ?observe:Noc_obs.Obs.t ->
  ?library:Noc_primitives.Library.t ->
  dir:string ->
  unit ->
  int * (string * string) list
(** Re-run every [*.acg] file under [dir] against its recorded property
    (all properties when the header is absent).  Returns (cases replayed,
    failures as file × detail) — an empty failure list means every past
    crash stays fixed.  A missing directory replays zero cases.  When
    [observe] is enabled, publishes [fuzz.corpus_size] and
    [fuzz.corpus_failures]. *)

val pp_report : Format.formatter -> report -> unit
