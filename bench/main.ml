(* Regenerates every table and figure of the paper's evaluation:

     fig2   - the decomposition-tree example of Fig. 2 (reconstructed)
     fig4a  - run time on TGFF-style task graphs (Fig. 4a)
     fig4b  - average run time on random (Pajek-style) graphs (Fig. 4b)
     fig5   - the random-benchmark decomposition listing (Fig. 5)
     fig6   - the AES ACG decomposition listing (Fig. 6 / Section 5.2)
     aes    - the prototype comparison table (Section 5.2 prose)
     ablate - library / beam ablations (design choices called out in DESIGN.md)

   The persisted benchmark corpus is `nocsynth bench` (see lib/benchkit).

   Run all sections:        dune exec bench/main.exe
   Run one section:         dune exec bench/main.exe -- fig4a aes *)

module D = Noc_graph.Digraph
module G = Noc_graph.Generators
module L = Noc_primitives.Library
module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Decomp = Noc_core.Decomposition
module Syn = Noc_core.Synthesis
module Dist = Noc_aes.Distributed

let ok_encrypt = function
  | Ok r -> r
  | Error (`Undrained n) ->
      failwith (Printf.sprintf "distributed AES did not drain: %d packets pending" n)
module Stats = Noc_sim.Stats
module Flit = Noc_sim.Flitsim
module Prng = Noc_util.Prng

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let default_library = L.default ()

let decompose_timed ?options ?budget acg =
  let (d, stats), wall =
    Noc_util.Timer.time (fun () ->
        Bb.decompose ?options ?budget ~library:default_library acg)
  in
  (d, stats, wall)

(* ------------------------------------------------------------------ *)
(* Fig. 2: the decomposition-tree example                               *)

(* The reconstructed Fig. 2 input lives in the benchmark corpus now (it is
   one of the persisted scenarios); see Noc_benchkit.Corpus. *)
let fig2_acg = Noc_benchkit.Corpus.fig2_acg

let fig2 () =
  section "Fig. 2 - decomposition tree example (reconstructed input)";
  let acg = fig2_acg () in
  Printf.printf "input: %d vertices, %d edges\n" (Acg.num_cores acg) (Acg.num_flows acg);
  (* the branching alternatives at the root, one per library graph, as in
     the figure *)
  Printf.printf "root branches (first matching per library graph):\n";
  List.iter
    (fun entry ->
      match
        Noc_graph.Vf2.find_first ~pattern:entry.L.prim.Noc_primitives.Primitive.repr
          ~target:(Acg.graph acg) ()
      with
      | Some m ->
          let matching = Noc_core.Matching.of_vf2 entry m in
          Format.printf "  %a@." Noc_core.Matching.pp matching
      | None -> ())
    default_library;
  let d, stats, wall = decompose_timed acg in
  Printf.printf "best decomposition (%.3f s, %d nodes):\n" wall stats.Bb.nodes;
  Format.printf "%a@." (Decomp.pp_with_cost Noc_core.Cost.Edge_count acg) d;
  Printf.printf "paper's leftmost-branch cost: 16; ours: %.0f\n" stats.Bb.best_cost

(* ------------------------------------------------------------------ *)
(* Fig. 4a: run time on TGFF task graphs                                *)

(* Each size is decomposed twice: with the paper-literal strategy where
   every primitive takes part in the branching ([Branch]), and with the
   saver-driven strategy ([Greedy], this library's default).  The former
   reproduces the growth shape of the paper's run-time figures; the latter
   shows what the structural argument about cost-neutral primitives buys. *)
let runtime_row ?(timeout = 5.0) acgs =
  let avg xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  let measure ?budget options =
    List.fold_left
      (fun (ts, to_, nodes, pruned) acg ->
        let _, stats, wall = decompose_timed ~options ?budget acg in
        ( wall :: ts,
          (to_ + if stats.Bb.timed_out then 1 else 0),
          nodes + stats.Bb.nodes,
          pruned + stats.Bb.pruned ))
      ([], 0, 0, 0) acgs
  in
  let lit_t, lit_to, _, _ =
    measure
      ~budget:Bb.Budget.(default |> with_timeout_s (Some timeout))
      { Bb.default_options with neutrals = Bb.Branch }
  in
  let grd_t, _, grd_nodes, grd_pruned = measure Bb.default_options in
  let n = List.length acgs in
  (avg lit_t, List.fold_left max 0. lit_t, lit_to, avg grd_t, grd_nodes / n, grd_pruned / n)

let fig4a () =
  section "Fig. 4a - decomposition run time, TGFF-style task graphs";
  Printf.printf "%8s  %30s  %34s\n" "" "paper-literal branching" "saver-driven";
  Printf.printf "%8s %10s %10s %8s %14s %9s %9s\n" "nodes" "avg (s)" "max (s)" "timeouts"
    "avg (s)" "avg tree" "avg prune";
  List.iter
    (fun n ->
      let acgs =
        List.map
          (fun seed ->
            let rng = Prng.create ~seed in
            Acg.of_tgff
              (Noc_tgff.Tgff.generate ~rng { Noc_tgff.Tgff.default_params with tasks = n }))
          [ 1; 2; 3; 4; 5 ]
      in
      let lit_avg, lit_max, lit_to, grd_avg, grd_nodes, grd_pruned = runtime_row acgs in
      Printf.printf "%8d %10.4f %10.4f %8d %14.4f %9d %9d\n" n lit_avg lit_max lit_to
        grd_avg grd_nodes grd_pruned)
    [ 5; 8; 10; 12; 15; 18 ];
  Printf.printf "\npresets (the paper's 18-node automotive benchmark took 0.3 s in Matlab):\n";
  List.iter
    (fun (name, params) ->
      let rng = Prng.create ~seed:11 in
      let acg = Acg.of_tgff (Noc_tgff.Tgff.generate ~rng params) in
      let _, stats, wall = decompose_timed acg in
      Printf.printf "  %-12s %2d nodes  %8.4f s  cost %.0f  tree=%d pruned=%d\n" name
        (Acg.num_cores acg) wall stats.Bb.best_cost stats.Bb.nodes stats.Bb.pruned)
    Noc_tgff.Tgff.presets

(* ------------------------------------------------------------------ *)
(* Fig. 4b: run time on random (Pajek-style) graphs                     *)

let fig4b () =
  section "Fig. 4b - decomposition run time, random graphs (Pajek substitute)";
  Printf.printf "%8s  %30s  %34s\n" "" "paper-literal branching" "saver-driven";
  Printf.printf "%8s %10s %10s %8s %14s %9s %9s\n" "nodes" "avg (s)" "max (s)" "timeouts"
    "avg (s)" "avg tree" "avg prune";
  List.iter
    (fun n ->
      (* Pajek-era random networks: sparse, average degree ~ 3 *)
      let p = 3.0 /. float_of_int (n - 1) in
      let acgs =
        List.map
          (fun seed ->
            let rng = Prng.create ~seed in
            Acg.uniform ~volume:16 ~bandwidth:0.1 (G.erdos_renyi ~rng ~n ~p))
          [ 1; 2; 3; 4; 5 ]
      in
      let lit_avg, lit_max, lit_to, grd_avg, grd_nodes, grd_pruned = runtime_row acgs in
      Printf.printf "%8d %10.4f %10.4f %8d %14.4f %9d %9d\n" n lit_avg lit_max lit_to
        grd_avg grd_nodes grd_pruned)
    [ 10; 15; 20; 25; 30; 35; 40 ];
  Printf.printf
    "(paper: a 40-node graph decomposes in < 3 min in Matlab + C++ VF2; timeouts are\n\
    \ the 5 s per-instance budget the paper itself recommends in Section 5.1)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 5: the example random benchmark                                 *)

(* Reconstructed from the paper's printed decomposition; lives in the
   corpus (Noc_benchkit.Corpus) as the "fig5" scenario. *)
let fig5_acg = Noc_benchkit.Corpus.fig5_acg

let fig5 () =
  section "Fig. 5 - customized synthesis for the paper's random benchmark";
  let acg = fig5_acg () in
  Printf.printf "input (reconstructed from the paper's listing): %d vertices, %d edges\n"
    (Acg.num_cores acg) (Acg.num_flows acg);
  let d, _, wall = decompose_timed acg in
  Format.printf "%a@." (Decomp.pp_with_cost Noc_core.Cost.Edge_count acg) d;
  Printf.printf "elapsed %.4f s (paper: < 0.1 s)\n" wall;
  Printf.printf "primitives used: %s\n  (paper: 1x MGG4, 3x G123, 1x G124, no remainder)\n"
    (Decomp.primitive_histogram d
    |> List.map (fun (n, k) -> Printf.sprintf "%dx %s" k n)
    |> String.concat ", ")

(* ------------------------------------------------------------------ *)
(* Fig. 6 + Section 5.2: AES                                            *)

let fig6 () =
  section "Fig. 6 - AES ACG decomposition (paper output: COST 28)";
  let acg = Dist.acg () in
  let d, stats, wall = decompose_timed acg in
  Format.printf "%a@." (Decomp.pp_with_cost Noc_core.Cost.Edge_count acg) d;
  Printf.printf "elapsed %.4f s (paper: 0.58 s)\n" wall;
  Printf.printf "search tree: %d nodes, %d matchings, %d pruned, %d incumbent(s)\n"
    stats.Bb.nodes stats.Bb.matches_tried stats.Bb.pruned stats.Bb.incumbents

let aes_table () =
  section "Section 5.2 - prototype performance and energy comparison";
  let acg = Dist.acg () in
  let d, _, _ = decompose_timed acg in
  let custom = Syn.custom acg d in
  let mesh = Syn.mesh ~rows:4 ~cols:4 acg in
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp =
    Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:16 ~size_mm:2.0)
  in
  let key = Noc_aes.Aes_core.of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt = Noc_aes.Aes_core.of_hex "00112233445566778899aabbccddeeff" in
  let expect = Noc_aes.Aes_core.encrypt_block ~key pt in
  let run arch =
    let r = ok_encrypt (Dist.encrypt ~config:(Dist.prototype_config arch) ~arch ~key pt) in
    assert (Bytes.equal r.Dist.ciphertext expect);
    let energy = Stats.total_energy_pj ~tech ~fp r.Dist.net in
    let power = Stats.avg_power_mw ~tech ~fp r.Dist.net in
    (r.Dist.cycles, r.Dist.summary.Stats.avg_latency, power, energy)
  in
  let mc, ml, mp, me = run mesh in
  let cc, cl, cp, ce = run custom in
  let thpt c = Dist.throughput_mbps ~cycles_per_block:c ~clock_mhz:100.0 in
  Printf.printf "%-22s %12s %12s %14s\n" "metric" "mesh" "customized" "custom/mesh";
  Printf.printf "%-22s %12d %12d %13.2fx\n" "cycles/block" mc cc
    (float_of_int cc /. float_of_int mc);
  Printf.printf "%-22s %12.1f %12.1f %13.2fx\n" "throughput (Mbps)" (thpt mc) (thpt cc)
    (thpt cc /. thpt mc);
  Printf.printf "%-22s %12.2f %12.2f %13.2fx\n" "avg latency (cycles)" ml cl (cl /. ml);
  Printf.printf "%-22s %12.2f %12.2f %13.2fx\n" "avg power (mW)" mp cp (cp /. mp);
  Printf.printf "%-22s %12.1f %12.1f %13.2fx\n" "energy/block (pJ)" me ce (ce /. me);
  Printf.printf "\npaper (Virtex-2 prototype @ 100 MHz):\n";
  Printf.printf "%-22s %12s %12s %14s\n" "cycles/block" "271" "199" "0.73x";
  Printf.printf "%-22s %12s %12s %14s\n" "throughput (Mbps)" "47.2" "64.3" "1.36x";
  Printf.printf "%-22s %12s %12s %14s\n" "avg latency (cycles)" "11.5" "9.6" "0.83x";
  Printf.printf "%-22s %12s %12s %14s\n" "avg power" "-" "-" "0.67x";
  Printf.printf "%-22s %12s %12s %14s\n" "energy/block (uJ)" "5.1" "2.5" "0.49x"

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)

let ablate () =
  section "Ablations - library content and branching width (AES ACG)";
  let acg = Dist.acg () in
  Printf.printf "library ablation:\n";
  List.iter
    (fun (name, lib) ->
      let (d, stats), wall = Noc_util.Timer.time (fun () -> Bb.decompose ~library:lib acg) in
      Printf.printf "  %-10s cost=%5.0f remainder=%2d links=%2d time=%.3fs\n" name
        stats.Bb.best_cost
        (D.num_edges d.Decomp.remainder)
        (Syn.link_count (Syn.custom acg d))
        wall)
    [ ("default", L.default ()); ("minimal", L.minimal ()); ("extended", L.extended ()) ];
  Printf.printf "branching-width ablation (matches per primitive per node):\n";
  List.iter
    (fun beam ->
      let options = { Bb.default_options with max_matches_per_step = beam } in
      let (_, stats), wall =
        Noc_util.Timer.time (fun () -> Bb.decompose ~options ~library:default_library acg)
      in
      Printf.printf "  beam=%2d cost=%5.0f nodes=%7d pruned=%7d time=%.3fs\n" beam
        stats.Bb.best_cost stats.Bb.nodes stats.Bb.pruned wall)
    [ 1; 2; 4 ];
  Printf.printf "router pipeline sensitivity (AES cycles/block, mesh vs custom):\n";
  let key = Noc_aes.Aes_core.of_hex "2b7e151628aed2a6abf7158809cf4f3c" in
  let pt = Noc_aes.Aes_core.of_hex "3243f6a8885a308d313198a2e0370734" in
  let d, _, _ = decompose_timed acg in
  let custom = Syn.custom acg d and mesh = Syn.mesh ~rows:4 ~cols:4 acg in
  List.iter
    (fun rd ->
      let run arch =
        let config = { (Dist.prototype_config arch) with router_delay = rd } in
        ok_encrypt (Dist.encrypt ~config ~arch ~key pt)
      in
      let rm = run mesh and rc = run custom in
      Printf.printf "  router_delay=%d: mesh=%4d custom=%4d (%.2fx)\n" rd rm.Dist.cycles
        rc.Dist.cycles
        (float_of_int rc.Dist.cycles /. float_of_int rm.Dist.cycles))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Extensions: routing policies and floorplan co-design (Section 6)     *)

let routing () =
  section "Extension - stochastic routing (Sec. 6 future work)";
  let acg = Dist.acg () in
  let d, _, _ = decompose_timed acg in
  let custom = Syn.custom acg d in
  let mesh = Syn.mesh ~rows:4 ~cols:4 acg in
  Printf.printf "AES round-burst traffic (10 rounds of ShiftRows + MixColumns):\n";
  Printf.printf "%-12s %-10s %10s %12s\n" "arch" "routing" "cycles" "avg latency";
  let shift_flows =
    List.concat_map
      (fun row ->
        List.filter_map
          (fun col ->
            let src = Dist.node_of ~row ~col in
            let dst = Dist.node_of ~row ~col:((col - row + 4) mod 4) in
            if src <> dst then Some (src, dst) else None)
          [ 0; 1; 2; 3 ])
      [ 1; 2; 3 ]
  in
  let mix_flows =
    List.concat_map
      (fun col ->
        List.concat_map
          (fun r1 ->
            List.filter_map
              (fun r2 ->
                if r1 <> r2 then Some (Dist.node_of ~row:r1 ~col, Dist.node_of ~row:r2 ~col)
                else None)
              [ 0; 1; 2; 3 ])
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  List.iter
    (fun (arch_name, arch) ->
      (* a drawn minimal path is not one of the analyzed routes, so the
         lanes cover any minimal path: one per hop of the longest *)
      let num_vcs =
        max (Dist.prototype_config arch).Flit.num_vcs
          (Option.value ~default:1 (Noc_graph.Traversal.diameter arch.Syn.topology))
      in
      let config = { (Dist.prototype_config arch) with num_vcs } in
      List.iter
        (fun (pol_name, policy) ->
          let net = Flit.create ~config ~policy arch in
          let burst flows =
            List.iter (fun (src, dst) -> ignore (Flit.inject ~size_flits:2 net ~src ~dst)) flows;
            match Flit.run_until_idle net with `Idle -> () | _ -> failwith "undrained burst"
          in
          for _ = 1 to 10 do
            burst shift_flows;
            burst mix_flows
          done;
          let s = Stats.summarize (Flit.deliveries net) in
          Printf.printf "%-12s %-10s %10d %12.2f\n" arch_name pol_name (Flit.now net)
            s.Stats.avg_latency)
        [ ("fixed", Flit.Fixed); ("oblivious", Flit.Oblivious (Prng.create ~seed:7)) ])
    [ ("mesh", mesh); ("customized", custom) ];
  Printf.printf
    "(AES flows are row/column aligned: single minimal paths on the mesh, symmetric\n\
    \ alternatives on the customized topology, so the policies tie; see\n\
    \ examples/routing_strategies.exe for transpose traffic)\n"

let codesign () =
  section "Extension - floorplan relaxation by co-design (Sec. 6 future work)";
  let acg = Dist.acg () in
  let tech = Noc_energy.Technology.cmos_180nm in
  let library = default_library in
  (* scrambled initial placement: the co-design loop must recover it *)
  let rng = Prng.create ~seed:19 in
  let ids = Array.init 16 (fun i -> i + 1) in
  Prng.shuffle rng ids;
  let scrambled =
    Noc_energy.Floorplan.grid
      (List.init 16 (fun i ->
           { Noc_energy.Floorplan.id = ids.(i); width_mm = 2.0; height_mm = 2.0 }))
  in
  let natural =
    Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:16 ~size_mm:2.0)
  in
  List.iter
    (fun (name, fp) ->
      let r =
        Noc_core.Co_design.optimize ~rounds:4 ~anneal_iterations:3000 ~rng ~tech ~library
          ~fp acg
      in
      Printf.printf "%-22s rounds=%d
" name (List.length r.Noc_core.Co_design.history);
      List.iter
        (fun it ->
          Printf.printf "  round %d: energy=%10.1f pJ  wirelength=%10.1f
"
            it.Noc_core.Co_design.round it.Noc_core.Co_design.energy_pj
            it.Noc_core.Co_design.wirelength)
        r.Noc_core.Co_design.history;
      Printf.printf "  best: %10.1f pJ
" r.Noc_core.Co_design.energy_pj)
    [ ("natural grid", natural); ("scrambled placement", scrambled) ]

(* ------------------------------------------------------------------ *)
(* Extension: load sweep                                                *)

let loadsweep () =
  section "Extension - latency vs offered load (customized vs mesh)";
  let acg = Dist.acg () in
  let d, _, _ = decompose_timed acg in
  let custom = Syn.custom acg d in
  let mesh = Syn.mesh ~rows:4 ~cols:4 acg in
  let rates = [ 0.005; 0.01; 0.02; 0.04; 0.06; 0.08; 0.10; 0.14 ] in
  let run arch =
    let rng = Prng.create ~seed:23 in
    Noc_sim.Sweep.latency_vs_load ~rng ~arch ~acg ~cycles:1500 ~rates ()
  in
  let pm = run mesh and pc = run custom in
  Printf.printf "%10s  %22s  %22s
" "rate/flow" "mesh lat (thpt)" "custom lat (thpt)";
  List.iter2
    (fun m c ->
      Printf.printf "%10.3f  %12.2f (%6.3f)  %12.2f (%6.3f)
" m.Noc_sim.Sweep.rate
        m.Noc_sim.Sweep.avg_latency m.Noc_sim.Sweep.throughput c.Noc_sim.Sweep.avg_latency
        c.Noc_sim.Sweep.throughput)
    pm pc;
  (match
     ( Noc_sim.Sweep.saturation_rate pm,
       Noc_sim.Sweep.saturation_rate pc )
   with
  | Some rm, Some rc ->
      Printf.printf "saturation knees: mesh %.3f, customized %.3f per flow
" rm rc
  | Some rm, None -> Printf.printf "mesh saturates at %.3f; customized never does here
" rm
  | None, _ -> Printf.printf "no saturation in the swept range
");
  print_string
    (Noc_util.Ascii_plot.render ~width:60 ~height:14 ~x_label:"offered load (pkts/cycle)"
       ~y_label:"avg latency (cycles)"
       [
         ("mesh", Noc_sim.Sweep.to_series pm);
         ("customized", Noc_sim.Sweep.to_series pc);
       ])

(* ------------------------------------------------------------------ *)
(* Extension: further application workloads                             *)

let apps () =
  section "Extension - multimedia and FFT workloads";
  let tech = Noc_energy.Technology.cmos_180nm in
  (* multimedia benchmarks: synthesis summary vs a 3x4 mesh *)
  Printf.printf "%-8s %6s %6s %9s %9s %10s %10s %9s
" "app" "cores" "flows" "links"
    "mesh lnk" "avg hops" "mesh hops" "E ratio";
  List.iter
    (fun (name, acg) ->
      let fp =
        Noc_energy.Floorplan.grid
          (Noc_energy.Floorplan.uniform_cores ~n:(Acg.num_cores acg) ~size_mm:2.0)
      in
      let d, _ = Bb.decompose ~library:default_library acg in
      let custom = Syn.custom acg d in
      let mesh = Syn.mesh ~rows:3 ~cols:4 acg in
      let ec = Syn.total_energy ~tech ~fp acg custom in
      let em = Syn.total_energy ~tech ~fp acg mesh in
      Printf.printf "%-8s %6d %6d %9d %9d %10.2f %10.2f %8.2fx
" name
        (Acg.num_cores acg) (Acg.num_flows acg) (Syn.link_count custom)
        (Syn.link_count mesh) (Syn.avg_hops acg custom) (Syn.avg_hops acg mesh)
        (ec /. em))
    [ ("vopd", Noc_apps.Multimedia.vopd ()); ("mpeg4", Noc_apps.Multimedia.mpeg4 ()) ];
  (* distributed FFT: bit-exact on all architectures, cycles compared *)
  Printf.printf "
16-point distributed FFT (128-bit complex samples, energy-cost cover):
";
  let acg = Noc_apps.Fft.acg () in
  let fp =
    Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:16 ~size_mm:2.0)
  in
  let options = { (Bb.energy_options ~tech ~fp) with constraints = None } in
  let d, _ = Bb.decompose ~options ~library:default_library acg in
  let custom = Syn.custom acg d in
  let mesh = Syn.mesh ~rows:4 ~cols:4 acg in
  let x = Array.init 16 (fun i -> { Complex.re = float_of_int (i mod 5); im = 0.25 }) in
  let expect = Noc_apps.Fft.fft x in
  List.iter
    (fun (name, arch) ->
      let r = Noc_apps.Fft.distributed ~arch x in
      let ok =
        Array.for_all2
          (fun a b -> Complex.norm (Complex.sub a b) < 1e-9)
          r.Noc_apps.Fft.output expect
      in
      Printf.printf "  %-12s %4d cycles/transform  exact=%b  links=%d  max hops=%d
" name
        r.Noc_apps.Fft.cycles ok (Syn.link_count arch) (Syn.max_hops arch))
    [ ("mesh", mesh); ("customized", custom) ]

(* ------------------------------------------------------------------ *)
(* Extension: mapping-optimized mesh baseline (design-space dim. 3)     *)

let mapping () =
  section "Extension - energy-aware mapping for the mesh baseline";
  let key = Noc_aes.Aes_core.of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt = Noc_aes.Aes_core.of_hex "00112233445566778899aabbccddeeff" in
  let acg = Dist.acg () in
  let rng = Prng.create ~seed:29 in
  let m = Noc_core.Mapping.optimize_mesh ~rng ~iterations:6000 ~rows:4 ~cols:4 acg in
  let hop_cost mm = Noc_core.Mapping.mesh_hop_cost ~rows:4 ~cols:4 acg mm in
  Printf.printf "volume-weighted hop cost: row-major %.0f, optimized %.0f
"
    (hop_cost (Noc_core.Mapping.identity acg))
    (hop_cost m);
  (* NOTE: remapping moves the AES state bytes to different tiles, so the
     distributed encryption must run on the remapped ACG's mesh while the
     byte orchestration still uses logical node ids; the mapping here only
     evaluates communication cost and cycle counts via burst replay. *)
  let replay acg arch =
    let net = Flit.create ~config:(Dist.prototype_config arch) arch in
    for _ = 1 to 10 do
      D.iter_edges (fun u v -> ignore (Flit.inject ~size_flits:2 net ~src:u ~dst:v)) (Acg.graph acg);
      match Flit.run_until_idle net with `Idle -> () | _ -> failwith "undrained burst"
    done;
    (Flit.now net, (Stats.summarize (Flit.deliveries net)).Stats.avg_latency)
  in
  let d, _, _ = decompose_timed acg in
  let custom = Syn.custom acg d in
  let c0, l0 = replay acg (Syn.mesh ~rows:4 ~cols:4 acg) in
  let c1, l1 =
    let acg' = Noc_core.Mapping.apply m acg in
    replay acg' (Syn.mesh ~rows:4 ~cols:4 acg')
  in
  let c2, l2 = replay acg custom in
  Printf.printf "%-28s %10s %12s
" "configuration" "cycles" "avg latency";
  Printf.printf "%-28s %10d %12.2f
" "mesh, row-major mapping" c0 l0;
  Printf.printf "%-28s %10d %12.2f
" "mesh, optimized mapping" c1 l1;
  Printf.printf "%-28s %10d %12.2f
" "customized topology" c2 l2;
  (* the full bit-exact AES on the default mapping for reference *)
  let r = ok_encrypt (Dist.encrypt ~config:(Dist.prototype_config custom) ~arch:custom ~key pt) in
  Printf.printf "(bit-exact AES on the customized arch: %d cycles/block)
" r.Dist.cycles

(* ------------------------------------------------------------------ *)
(* Extension: library design exploration (Sec. 3's open question)       *)

let library () =
  section "Extension - communication-library selection over a corpus";
  let rng = Prng.create ~seed:31 in
  let corpus =
    [
      ("aes", Dist.acg ());
      ("vopd", Noc_apps.Multimedia.vopd ());
      ("mpeg4", Noc_apps.Multimedia.mpeg4 ());
      ("fft", Noc_apps.Fft.acg ());
      ( "tgff",
        Acg.of_tgff (Noc_tgff.Tgff.generate ~rng Noc_tgff.Tgff.automotive) );
    ]
  in
  Printf.printf "corpus: %s
"
    (String.concat ", " (List.map (fun (n, _) -> n) corpus));
  let acgs = List.map snd corpus in
  let pool =
    [
      Noc_primitives.Primitive.gossip 4;
      Noc_primitives.Primitive.gossip 6;
      Noc_primitives.Primitive.gossip 8;
      Noc_primitives.Primitive.broadcast 4;
      Noc_primitives.Primitive.broadcast 5;
      Noc_primitives.Primitive.broadcast 6;
      Noc_primitives.Primitive.loop 4;
      Noc_primitives.Primitive.loop 6;
      Noc_primitives.Primitive.loop 8;
      Noc_primitives.Primitive.path 3;
      Noc_primitives.Primitive.path 5;
    ]
  in
  let selected, obj =
    Noc_core.Library_design.greedy_select ~max_size:6 ~pool ~corpus:acgs ()
  in
  Printf.printf "selected library (in pick order): %s
"
    (String.concat ", " (L.names selected));
  Printf.printf "objective: total cost %.0f, total remainder %d edges
"
    obj.Noc_core.Library_design.total_cost obj.Noc_core.Library_design.total_remainder;
  let baseline = Noc_core.Library_design.evaluate ~library:default_library acgs in
  Printf.printf "paper's default library: total cost %.0f, total remainder %d edges
"
    baseline.Noc_core.Library_design.total_cost
    baseline.Noc_core.Library_design.total_remainder

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig2", fig2);
    ("fig4a", fig4a);
    ("fig4b", fig4b);
    ("fig5", fig5);
    ("fig6", fig6);
    ("aes", aes_table);
    ("ablate", ablate);
    ("routing", routing);
    ("codesign", codesign);
    ("loadsweep", loadsweep);
    ("apps", apps);
    ("mapping", mapping);
    ("library", library);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested
