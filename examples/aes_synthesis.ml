(* The paper's flagship experiment (Section 5.2): distribute AES-128 over
   16 NoC nodes, synthesize a customized communication architecture for its
   traffic, and compare it against a standard 4x4 mesh on throughput,
   latency, power and energy per encrypted block.

   Run with: dune exec examples/aes_synthesis.exe *)

module A = Noc_aes.Aes_core
module Dist = Noc_aes.Distributed

let ok_encrypt = function
  | Ok r -> r
  | Error (`Undrained n) ->
      failwith (Printf.sprintf "distributed AES did not drain: %d packets pending" n)
module Bb = Noc_core.Branch_bound
module Decomp = Noc_core.Decomposition
module Syn = Noc_core.Synthesis
module Stats = Noc_sim.Stats

let () =
  (* the Fig. 6a application characterization graph *)
  let acg = Dist.acg () in
  Format.printf "AES ACG: %d cores, %d flows@.@." (Noc_core.Acg.num_cores acg)
    (Noc_core.Acg.num_flows acg);

  (* decomposition: reproduces the paper's listing (COST: 28) *)
  let library = Noc_primitives.Library.default () in
  let d, stats = Bb.decompose ~library acg in
  Format.printf "Decomposition found in %.2f s:@.%a@." stats.Bb.elapsed_s
    (Decomp.pp_with_cost Noc_core.Cost.Edge_count acg)
    d;

  let custom = Syn.custom acg d in
  let mesh = Syn.mesh ~rows:4 ~cols:4 acg in
  Format.printf "custom: %a@.mesh:   %a@.@." Syn.pp custom Syn.pp mesh;

  (* encrypt the FIPS-197 test vector on both architectures *)
  let key = A.of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt = A.of_hex "00112233445566778899aabbccddeeff" in
  let expect = A.encrypt_block ~key pt in
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp =
    Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:16 ~size_mm:2.0)
  in
  let run name arch =
    let r = ok_encrypt (Dist.encrypt ~config:(Dist.prototype_config arch) ~arch ~key pt) in
    assert (Bytes.equal r.Dist.ciphertext expect);
    let energy = Stats.total_energy_pj ~tech ~fp r.Dist.net in
    let power = Stats.avg_power_mw ~tech ~fp r.Dist.net in
    Format.printf
      "%-10s cycles/block=%4d  throughput=%6.1f Mbps  avg latency=%6.2f cy  power=%6.2f \
       mW  energy/block=%8.1f pJ@."
      name r.Dist.cycles
      (Dist.throughput_mbps ~cycles_per_block:r.Dist.cycles ~clock_mhz:100.0)
      r.Dist.summary.Stats.avg_latency power energy;
    (r.Dist.cycles, energy)
  in
  Format.printf "Ciphertext (both architectures, bit-exact): %s@.@." (A.to_hex expect);
  let mc, me = run "mesh" mesh in
  let cc, ce = run "customized" custom in
  Format.printf
    "@.customized vs mesh: %+.0f%% throughput, %.0f%% of the cycles, %.0f%% of the \
     energy per block@."
    ((float_of_int mc /. float_of_int cc -. 1.) *. 100.)
    (100. *. float_of_int cc /. float_of_int mc)
    (100. *. ce /. me)
