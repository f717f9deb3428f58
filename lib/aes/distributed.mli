(** Distributed AES-128 over a 16-node NoC (Section 5.2).

    "We distributed the AES operations to a network of 16 identical nodes
    each processing one byte of the input block" — node [v] holds the state
    byte at row [(v-1)/4], column [(v-1) mod 4], so the first state column
    lives on nodes 1, 5, 9, 13, exactly the vertex groups of the paper's
    Fig. 6a decomposition listing.

    Per AES round, SubBytes and AddRoundKey are node-local; ShiftRows makes
    every node of rows 1–3 forward its byte along its row (rows shifted by
    1 and 3 form directed 4-cycles, the row shifted by 2 forms two
    2-cycles); MixColumns needs every byte of a column at every node of
    that column — the all-to-all (gossip) pattern that dominates the ACG.

    {!encrypt} executes the computation cycle-accurately on a synthesized
    architecture and returns a ciphertext that is verified bit-identical to
    {!Aes_core.encrypt_block} by the test suite. *)

val node_of : row:int -> col:int -> int
(** [row*4 + col + 1]; rows and columns in [0, 3]. *)

val pos_of : int -> int * int
(** Inverse of {!node_of}. *)

val acg : unit -> Noc_core.Acg.t
(** The application characterization graph of Fig. 6a: per-block volumes
    are 8 bits × 9 rounds on MixColumns edges and 8 bits × 10 rounds on
    ShiftRows edges; bandwidth reflects one byte per phase. *)

type result = {
  ciphertext : Bytes.t;
  cycles : int;  (** total cycles to encrypt the block *)
  summary : Noc_sim.Stats.summary;  (** per-packet network statistics *)
  net : Noc_sim.Flitsim.t;  (** final engine state, for energy probing *)
}

val prototype_config : Noc_core.Synthesis.t -> Noc_sim.Flitsim.config
(** The §5.2 prototype setting for an architecture: the
    {!Noc_sim.Engine.prescribed} [Coarse] preset (one 8-bit flit per link
    cycle over the lanes the architecture needs) with a 3-cycle router
    pipeline. *)

val encrypt :
  ?config:Noc_sim.Flitsim.config ->
  ?max_cycles:int ->
  arch:Noc_core.Synthesis.t ->
  key:Bytes.t ->
  Bytes.t ->
  (result, [ `Undrained of int ]) Stdlib.result
(** Encrypts one 16-byte block on the given architecture, simulated on
    the flit engine with [config] (default: the
    {!Noc_sim.Engine.prescribed} [Coarse] preset, one 8-bit flit per link
    cycle over the lanes the architecture needs).  Local work costs 1
    cycle per SubBytes, 2 per MixColumns and 1 per AddRoundKey; every
    byte message is 2 flits (header and payload).  The architecture must
    route every ACG flow (build it from {!acg} via
    {!Noc_core.Synthesis.custom} or {!Noc_core.Synthesis.mesh}).
    [Error (`Undrained n)] means some communication phase deadlocked or
    failed to drain within [max_cycles] (default 1_000_000) with [n]
    packets still in flight — e.g. too few lanes for the routes — instead
    of the [Invalid_argument] escape this API used to raise.
    @raise Invalid_argument on bad key/block sizes or missing routes. *)

val throughput_mbps : cycles_per_block:int -> clock_mhz:float -> float
(** The paper's Section 5.2 throughput formula: 128 bits per block at
    [clock / cycles] blocks per second, in Mbit/s. *)
