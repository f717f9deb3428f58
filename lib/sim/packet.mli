(** Packets traversing the simulated network. *)

type t = {
  id : int;
  src : int;
  dst : int;
  size_flits : int;  (** serialization length in flits *)
  tag : int;  (** application-level tag (opaque to the network) *)
  payload : Bytes.t;  (** application payload (opaque to the network) *)
  route : int array;  (** precomputed vertex path, [route.(0) = src] *)
  injected_at : int;
}

type delivery = { packet : t; delivered_at : int }
(** A packet and the cycle its tail flit reached the sink: the one delivery
    record every engine reports and {!Stats.summarize} reads. *)

val hops : t -> int
(** Number of physical links the packet crosses. *)

val pp : Format.formatter -> t -> unit
