(** Radix-2 FFT, sequential reference and 16-node distributed version.

    The paper closes by noting that AES "is far from demonstrating the
    benefits of a networked implementation" because of its modest
    communication needs; the FFT butterfly is the canonical
    communication-dominated kernel, so it makes a natural second workload
    for the synthesized architectures.  Each of the 16 nodes holds one
    complex sample; stage s of the decimation-in-frequency butterfly
    exchanges values between nodes whose indices differ in bit s — the
    hypercube pattern.  The distributed computation runs cycle-accurately
    on any architecture that routes the FFT's flows and is validated
    against the sequential FFT. *)

val dft : Complex.t array -> Complex.t array
(** O(n²) discrete Fourier transform (the ground truth for tests). *)

val fft : Complex.t array -> Complex.t array
(** Radix-2 decimation-in-frequency FFT; the input length must be a power
    of two.  @raise Invalid_argument otherwise. *)

val acg : unit -> Noc_core.Acg.t
(** The 16-point FFT's communication pattern: for every stage distance
    d ∈ {8, 4, 2, 1}, node i exchanges one complex sample (128 bits) with
    node (i xor d); node ids are 1-based. *)

type result = {
  output : Complex.t array;
  cycles : int;
  summary : Noc_sim.Stats.summary;
  net : Noc_sim.Flitsim.t;
}

val distributed :
  ?config:Noc_sim.Flitsim.config ->
  arch:Noc_core.Synthesis.t ->
  Complex.t array ->
  result
(** Runs a 16-point FFT on the architecture (which must route all flows of
    {!acg}), simulated on the flit engine with [config] (default: the
    {!Noc_sim.Engine.prescribed} [Coarse] preset); each stage adds 2
    cycles of local arithmetic.
    The output is in natural order and numerically identical to {!fft}.
    @raise Invalid_argument unless the input has exactly 16 samples. *)
