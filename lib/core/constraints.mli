(** Design-constraint checking (Section 4.2): a decomposition is legal only
    if (a) every physical link can carry the aggregate bandwidth of the
    flows routed over it, and (b) the synthesized architecture's bisection
    stays within the wiring resources the technology provides for network
    links. *)

type t = {
  link_bandwidth : float;  (** capacity of one physical link, Gbit/s *)
  max_bisection_links : int;  (** wiring-resource budget across the die bisection *)
}

type violation =
  | Link_overload of { link : int * int; demand : float; capacity : float }
  | Bisection_exceeded of { links : int; budget : int }

val of_technology : Noc_energy.Technology.t -> t

val unconstrained : t
(** Infinite capacity — used when only the cost objective matters. *)

val check : t -> Acg.t -> Synthesis.t -> violation list
(** Empty list = all constraints satisfied.  The bisection check uses the
    heuristic min-cut of {!Synthesis.bisection_links}; the heuristic
    overestimates the true minimum cut, so a reported violation is
    conservative.  The verdict is a pure function of its arguments. *)

val satisfied : t -> Acg.t -> Synthesis.t -> bool

val pp_violation : Format.formatter -> violation -> unit
