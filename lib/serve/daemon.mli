(** [nocsynthd]: the crash-only request pipeline.

    Requests go through one funnel ({!solve}): admission guards (starved
    deadline, oversized ACG), the service budget clamp, then compute the
    canonical cache key, return the cached bytes on a hit, otherwise
    synthesize {e on the canonical form of the ACG} and cache the rendered
    response.  Because the search runs on the canonical relabeling, two
    isomorphic requests don't just share a cache entry — the response
    computed for either is byte-identical, so a hit is indistinguishable
    from a recomputation.

    {b Fault discipline}: {!solve} is total — every failure mode becomes a
    typed {!Proto.Error.t} reply ([Bad_request] for unusable input,
    [Over_budget] for dead-on-arrival deadlines, [Shed] for admission
    overflow, [Internal] for any escaping exception) and is mirrored into
    the [serve.errors.*] counters; no exception crosses the daemon
    boundary and a failed request never kills queued ones.  Error replies
    are never cached.  Any finite wall budget runs with the greedy anytime
    fallback seeded, so deadline exhaustion degrades to a feasible answer
    with a reported optimality gap ({!Proto.Response.t.degraded} /
    [gap_pct]) instead of overrunning.

    Concurrency model: the request loop runs on one domain and each search
    fans out across [Budget.domains] via the branch-and-bound
    work-stealing scheduler — parallelism lives inside requests, where the
    work is.  {!serve_batch} is the batching entry point: requests that
    share a cache key collapse onto one search (the first computes, the
    rest hit), responses keep submission order, and batch members beyond
    {!config.max_inflight} are shed — memory stays bounded by the
    admission window, never by the client's burst size. *)

(** Daemon-wide hard limits, enforced at admission. *)
type config = {
  max_inflight : int;
      (** admission-queue bound for {!serve_batch}: batch members beyond
          this reply [Shed] (default 64) *)
  max_cores : int;
      (** largest ACG admitted; bigger ones reply [Bad_request]
          (default 4096) *)
  max_request_bytes : int;
      (** largest request line / ACG file / inline text admitted
          (default 1 MiB); oversized files are rejected from their
          metadata, never read into memory *)
  max_timeout_s : float option;
      (** hard per-request wall budget: declared deadlines are clamped to
          this and requests that declare none get it ([None] = no cap,
          unbounded searches allowed) *)
}

val default_config : config

(** Reply accounting, mirrored from the [serve.*] counters (available even
    with observability disabled). *)
type error_stats = {
  replies : int;  (** every reply emitted, success or failure *)
  ok : int;
  bad_request : int;
  over_budget : int;
  shed : int;
  internal : int;
}

type t

type status = Hit | Miss

type outcome = {
  request_id : string;  (** echoed {!Proto.Request.t.id} *)
  key : string;
  response : Proto.Response.t;
  bytes : string;  (** rendered response; byte-identical across hits *)
  status : status;
  wall_s : float;
}

type reply = (outcome, Proto.Error.t) result

val create :
  ?cache_capacity:int ->
  ?config:config ->
  ?fault_hook:(unit -> bool) ->
  ?observe:Noc_obs.Obs.t ->
  unit ->
  t
(** A daemon with an empty cache.  [observe] feeds the [serve.*] counters
    and per-request spans; default {!Noc_obs.Obs.disabled}.  [fault_hook]
    is the chaos-testing seam: when it returns [true] the compute path
    raises before searching, which must surface as a typed [Internal]
    reply — never set in production. *)

val solve : t -> Proto.Request.t -> reply
(** Serve one request.  Total: never raises. *)

val solve_exn : t -> Proto.Request.t -> outcome
(** {!solve} for drivers that only send well-formed requests.
    @raise Failure with the rendered error on a typed failure. *)

val solve_text : t ->
  ?library:string ->
  ?budget:Noc_core.Branch_bound.Budget.t ->
  id:string -> string -> reply
(** Parse ACG text (size-guarded, {!Noc_core.Acg_io.parse} format) and
    serve it — the funnel behind one {!run_loop} line and the chaos
    harness's malformed-input classes.  Total: never raises. *)

val serve_batch : t -> Proto.Request.t list -> reply list
(** Serve a batch in submission order; within-batch duplicates (same cache
    key) are computed once, and members beyond [config.max_inflight] are
    shed with a typed [Shed] reply. *)

val cache_stats : t -> Cache.stats

val cache : t -> Cache.t
(** The daemon's result cache, exposed for {!Cache.snapshot} /
    {!Cache.restore} at process boundaries. *)

val config : t -> config
val error_stats : t -> error_stats

(** What one {!run_loop} session did. *)
type loop_stats = { served : int; ok : int; errors : int; shed : int }

val run_loop :
  ?library:string ->
  ?budget:Noc_core.Branch_bound.Budget.t ->
  t ->
  in_channel ->
  out_channel ->
  loop_stats
(** The line-oriented service loop behind [nocsynth serve]: each input
    line names an ACG file ({!Noc_core.Acg_io.load} format), each output
    line is one JSON object — either
    [{"id", "cache", "wall_s", "response"}] or
    [{"id", "error": {"class", "message"}}] with a {!Proto.Error}
    class.  Blank lines and [#] comments are skipped; ["quit"] or
    end-of-file ends the loop.  Every request line gets exactly one reply
    and every reply is counted ([served] = wire replies emitted); no
    input, however malformed, terminates the loop. *)
