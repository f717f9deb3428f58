(** The typed request/response surface of the synthesis service.

    A {!Request.t} is everything one synthesis call needs: the ACG, the
    primitive library (by name, so requests serialize), the search
    {!Noc_core.Branch_bound.Budget.t} and optional bandwidth/bisection
    constraints.  A {!Response.t} is the full answer: the synthesized
    topology and routes (in {e canonical} vertex ids), the search report,
    the multi-backend comparison (custom vs 2D mesh vs sparse-Hamming) and
    provenance.

    Responses are deliberately free of volatile data (wall times, cache
    status, request ids live in {!Daemon.outcome} instead), so
    {!Response.to_string} is a pure function of the cache key: the daemon
    can hand back cached bytes and isomorphic requests receive
    byte-identical responses. *)

module Request : sig
  type t = {
    id : string;  (** client tag, echoed in the outcome; not part of the key *)
    acg : Noc_core.Acg.t;
    library : string;  (** ["default"], ["extended"] or ["minimal"] *)
    budget : Noc_core.Branch_bound.Budget.t;
    constraints : Noc_core.Constraints.t option;
  }

  val make :
    ?id:string ->
    ?library:string ->
    ?budget:Noc_core.Branch_bound.Budget.t ->
    ?constraints:Noc_core.Constraints.t ->
    Noc_core.Acg.t ->
    t
  (** Defaults: id [""], library ["default"], {!Noc_core.Branch_bound.Budget.default},
      no constraints. *)

  val cache_key : t -> string
  (** The content address: {!Noc_core.Acg.canonical_hash} of the ACG plus
      the library name, the budget's [timeout_s]/[max_nodes] and the
      constraints.  [Budget.domains] is deliberately excluded — it is an
      execution hint, and a completed search returns the same answer at any
      domain count — so a request served at [domains = 1] is a cache hit
      for the same ACG at [domains = 8]. *)

  val cache_key_of_labeling : t -> Noc_core.Acg.labeling -> string
  (** {!cache_key} from an already computed [Acg.canonical_labeling t.acg],
      so the daemon labels each request once. *)

  val library_of_name : string -> Noc_primitives.Library.t option
  (** Resolves the library field; [None] for unknown names. *)
end

(** The wire error taxonomy: every way a request can fail maps onto one of
    four classes, each with a stable [class] tag and a JSON encoding, so a
    client can always parse the reply — the daemon never answers with a
    stack trace or a closed pipe.

    - [Bad_request]: the input is unusable (unparseable ACG, self-loop,
      unknown library, oversized request) — retrying is pointless;
    - [Over_budget]: the declared deadline was unsatisfiable at admission
      (non-positive timeout) — retry with a real budget;
    - [Shed]: the admission queue was full — back off and retry;
    - [Internal]: an exception escaped the pipeline; the message is the
      exception text, the daemon survives. *)
module Error : sig
  type t =
    | Bad_request of string
    | Over_budget of string
    | Shed of string
    | Internal of string

  val class_name : t -> string
  (** ["bad_request"], ["over_budget"], ["shed"] or ["internal"]. *)

  val message : t -> string

  val counter_name : t -> string
  (** The per-class observability counter, ["serve.errors.<class>"]. *)

  val to_json : t -> Noc_obs.Obs.Json.t
  (** [{"class": ..., "message": ...}]. *)

  val to_string : t -> string

  val of_json : Noc_obs.Obs.Json.t -> t option
  (** Inverse of {!to_json}; [None] on unknown class or shape. *)
end

module Response : sig
  type backend_score = {
    backend : string;  (** ["custom"], ["mesh"] or ["sparse_hamming"] *)
    links : int;
    avg_hops : float;
    max_hops : int;
    energy_pj : float;
  }

  type provenance = {
    library : string;
    budget_timeout_s : float option;
    budget_max_nodes : int;
    canonical : bool;
        (** true when the ACG was served in canonical form; false on the
            (truncated-canonicalization) exact fallback *)
  }

  type t = {
    key : string;  (** the {!Request.cache_key} this response answers *)
    cores : int;
    flows : int;
    cost : float;  (** best decomposition cost (Eq. 4) *)
    timed_out : bool;
    degraded : bool;
        (** the answer is the greedy anytime fallback — the search found
            nothing better within its (possibly clamped) deadline *)
    gap_pct : float option;
        (** on a timed-out search, the reported cost's distance above the
            root lower bound — an upper bound on the optimality gap *)
    constraints_met : bool;
    topology : (int * int) list;
        (** undirected links of the custom architecture as [(min, max)]
            pairs over canonical core ids, sorted *)
    routes : ((int * int) * int list) list;
        (** one route per flow, [(src, dst), path], canonical ids, sorted *)
    backends : backend_score list;  (** custom first, then mesh, then Hamming *)
    provenance : provenance;
  }

  val to_json : t -> Noc_obs.Obs.Json.t
  val to_string : t -> string
  (** [to_string r] is [Obs.Json.to_string (to_json r)]: deterministic,
      single-line — the bytes the cache stores and the daemon replies
      with. *)

  val of_json : Noc_obs.Obs.Json.t -> (t, [ `Msg of string ]) result
  (** Total inverse of {!to_json} (used by the cache snapshot restore);
      malformed shapes come back as [Error], never an exception. *)

  val of_string : string -> (t, [ `Msg of string ]) result
  (** {!Noc_obs.Obs.Json.parse} composed with {!of_json}. *)
end
