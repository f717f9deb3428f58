(** Named presets of the one simulation engine, {!Flitsim}.

    Benchkit, resilience campaigns, sweeps and the CLI select a preset per
    run ([nocsynth simulate --engine coarse|flit]) instead of spelling out
    a {!Flitsim.config}:

    - [Flit] is exactly {!Flitsim.default_config}: 32-bit flits over
      byte-serial links (4 link cycles per flit), 4-flit VOQs, one lane;
    - [Coarse] carries one 8-bit flit per link cycle (the link width of
      the paper's prototype NoC), otherwise the same.

    Both run the same VOQ routers with credits, so either can report a
    genuine circular wait as {!Deadlock}; {!prescribed} adds the
    virtual-channel lanes that rule it out. *)

type kind = Coarse | Flit

val all_kinds : kind list
(** [Coarse; Flit]. *)

val kind_name : kind -> string
(** ["coarse"] / ["flit"]. *)

val kind_of_name : string -> kind option

val config : kind -> Flitsim.config
(** The preset. *)

val prescribed : kind -> Noc_core.Synthesis.t -> Flitsim.config
(** The preset with the lanes {!Noc_core.Deadlock.analyze} prescribes for
    the architecture ([num_vcs = vcs_needed]), under which its routes
    cannot deadlock. *)

type t = Flitsim.t

val create : kind -> Noc_core.Synthesis.t -> t
(** A fresh engine at cycle 0 running the preset as it is. *)

val inject :
  ?tag:int -> ?payload:Bytes.t -> ?size_flits:int -> t -> src:int -> dst:int -> int
(** {!Flitsim.inject}. *)

val step : t -> unit
val now : t -> int
val flit_hops : t -> int

type verdict = Idle | Deadlock | Limit of int
(** [Limit n]: the cycle budget ran out with [n] packets outstanding. *)

val verdict_name : verdict -> string

val run_until_idle : ?max_cycles:int -> t -> verdict

val summary : t -> Stats.summary
(** {!Stats.summarize} over the deliveries. *)

val flitsim : t -> Flitsim.t option
(** Always [Some]: kept for callers written when a second engine existed. *)
