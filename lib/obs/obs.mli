(** Observability: spans, counters and gauges for the search and the
    simulator, with two sinks — a metrics list and a Chrome [trace_event]
    JSON exporter loadable in [about://tracing] / Perfetto.

    Design constraints, in order:

    - {b off by default, free when disabled}: {!disabled} is a shared no-op
      observer; every operation on it reduces to a field test and the
      instrumented engines produce bit-identical results with it (the
      differential tests in [test/suite_obs.ml] assert this);
    - {b domain-safe}: counters and gauges are single atomics, so the
      parallel branch-and-bound workers bump them without locks; the event
      buffer takes a mutex only on the (rare) span/instant boundaries;
    - {b dependency-free}: only the stdlib and the monotonic clock already
      wrapped by {!Noc_util.Timer}. *)

(** Minimal JSON values, used for trace/metrics emission (this repository
    deliberately has no JSON dependency). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float  (** non-finite floats render as [null] *)
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering with full string escaping; always valid JSON. *)

  val parse : string -> (t, [ `Msg of string ]) result
  (** [parse s] reads one JSON value (the whole string; trailing garbage is
      an error).  Round-trips everything {!to_string} emits — numbers
      without a fractional part or exponent come back as [Int], others as
      [Float].  Only ASCII [\u....] escapes are supported, which covers the
      emitter's output. *)

  val member : string -> t -> t option
  (** [member key json] is the value bound to [key] when [json] is an
      [Obj]; [None] otherwise. *)

  val to_float : t -> float option
  (** Numeric view of an [Int] or [Float] node. *)
end

(** Monotonically increasing integer counters (a single [Atomic.t]). *)
module Counter : sig
  type t

  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
end

(** Last-write-wins float gauges. *)
module Gauge : sig
  type t

  val name : t -> string
  val set : t -> float -> unit
  val get : t -> float
end

type t
(** An observer: a registry of counters and gauges plus a buffer of timed
    trace events, all sharing one monotonic epoch. *)

val disabled : t
(** The shared no-op observer: {!enabled} is [false], spans run their body
    directly, counters handed out are dummies, sinks render nothing. *)

val create : unit -> t
(** A live observer; its epoch (trace timestamp 0) is the moment of
    creation. *)

val enabled : t -> bool

val counter : t -> string -> Counter.t
(** The observer's counter registered under [name], created on first
    request (subsequent requests return the same counter).  On {!disabled}
    this returns a fresh unregistered dummy — callers on hot paths should
    gate with {!enabled} and keep local accumulators instead. *)

val gauge : t -> string -> Gauge.t

val span : t -> ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f ()]; when enabled, records a complete
    ([ph = "X"]) trace event covering its duration, tagged with the calling
    domain's id, even if [f] raises.  When disabled this is exactly
    [f ()]. *)

val instant : t -> ?args:(string * Json.t) list -> string -> unit
(** A point-in-time ([ph = "i"]) event — e.g. one incumbent update. *)

val sample : t -> string -> float -> unit
(** A Chrome counter ([ph = "C"]) event: the timeline of [name] over the
    run. *)

val metrics : t -> (string * Json.t) list
(** All registered counters (as [Int]) and gauges (as [Float]), sorted by
    name; [[]] when disabled. *)

(** Chrome [trace_event] sink. *)
module Trace : sig
  val to_json : t -> Json.t
  (** [{"traceEvents": [...], "displayTimeUnit": "ms"}].  Every buffered
      event appears in order; one final counter sample per registered
      counter and gauge is appended so scalar metrics are visible in the
      viewer.  Timestamps are microseconds since the observer's epoch. *)

  val to_string : t -> string

  val write : t -> path:string -> unit
end
