(** The persisted benchmark record: [BENCH_<rev>.json].

    One top-level object: [schema], [schema_version], [rev], [mode]
    ("full" or "smoke"), [created_unix_s] and a [scenarios] array with one
    object per corpus scenario (timing, search-tree, topology, energy,
    deadlock, engine burst and sweep fields).  The schema is append-only:
    tools must tolerate extra fields, and renaming or removing a field
    bumps [schema_version]. *)

val schema : string
val schema_version : int

val result_json : Runner.result -> Noc_obs.Obs.Json.t

val to_json :
  ?created_unix_s:float -> rev:string -> mode:string -> Runner.result list ->
  Noc_obs.Obs.Json.t

val write : path:string -> Noc_obs.Obs.Json.t -> unit

val load : string -> (Noc_obs.Obs.Json.t, [ `Msg of string ]) result
(** Reads and parses a record file; no schema check (see
    {!check_schema}). *)

val check_schema : Noc_obs.Obs.Json.t -> (unit, [ `Msg of string ]) result

val flatten : Noc_obs.Obs.Json.t -> (string * float) list
(** Dotted (path, numeric value) pairs, e.g.
    ["scenarios.aes.search.d1.wall_s"].  Array elements are keyed by their
    ["name"], ["domains"] or ["rate"] member when present (stable under
    insertion), by index otherwise.  Strings and nulls are skipped; bools
    flatten to 0/1. *)
