(* Tests for the fault-injection and graceful-degradation subsystem
   (lib/resil): fault model, static rerouting, the per-fault-set burst
   and its delivered/dropped/stranded classification, hardening and
   campaign determinism. *)

module D = Noc_graph.Digraph
module Acg = Noc_core.Acg
module Syn = Noc_core.Synthesis
module Fault = Noc_resil.Fault
module Reroute = Noc_resil.Reroute
module Campaign = Noc_resil.Campaign
module Prng = Noc_util.Prng
module Fuzz = Noc_oracle.Fuzz

let add_pair g (u, v) = D.add_edge (D.add_edge g u v) v u

let topology_of pairs = List.fold_left add_pair D.empty pairs

(* Diamond: 1-2-4 and 1-3-4; the single flow is routed over the top (via
   2), so killing link 1-2 leaves a live detour through 3. *)
let diamond_arch () =
  let topology = topology_of [ (1, 2); (2, 4); (1, 3); (3, 4) ] in
  let routes = D.Edge_map.singleton (1, 4) [ 1; 2; 4 ] in
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.1 (D.of_edges [ (1, 4) ]) in
  (acg, Syn.make ~topology ~routes)

(* Line: 1-2-3; no redundancy at all. *)
let line_arch () =
  let topology = topology_of [ (1, 2); (2, 3) ] in
  let routes =
    D.Edge_map.of_seq (List.to_seq [ ((1, 3), [ 1; 2; 3 ]); ((1, 2), [ 1; 2 ]) ])
  in
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.1 (D.of_edges [ (1, 3); (1, 2) ]) in
  (acg, Syn.make ~topology ~routes)

(* ---------------------------------------------------------------- *)
(* Fault model                                                      *)

let test_fault_model () =
  Alcotest.(check bool) "link endpoints normalized" true (Fault.link 7 3 = Fault.Link (3, 7));
  let _, arch = diamond_arch () in
  Alcotest.(check (list (pair int int)))
    "undirected links, sorted"
    [ (1, 2); (1, 3); (2, 4); (3, 4) ]
    (D.undirected_edges arch.Syn.topology);
  let sweep = Fault.single_link_campaign arch in
  Alcotest.(check int) "one fault set per link" 4 (List.length sweep);
  List.iter
    (fun set -> Alcotest.(check int) "singleton sets" 1 (List.length set))
    sweep;
  let multi arch =
    Fault.multi_link_campaign ~rng:(Prng.create ~seed:9) ~links:2 ~samples:6 arch
  in
  Alcotest.(check bool) "multi-link sampling deterministic" true (multi arch = multi arch);
  List.iter
    (fun set ->
      Alcotest.(check int) "requested set size" 2 (List.length set);
      Alcotest.(check int) "distinct links per set" 2 (List.length (List.sort_uniq compare set)))
    (multi arch)

(* ---------------------------------------------------------------- *)
(* Static rerouting                                                 *)

let test_reroute_diamond () =
  let _, arch = diamond_arch () in
  let o = Reroute.apply arch ~faults:[ Fault.link 1 2 ] in
  Alcotest.(check (list (pair int int))) "nothing kept" [] o.Reroute.kept;
  Alcotest.(check (list (pair int int))) "flow rerouted" [ (1, 4) ] o.Reroute.rerouted;
  Alcotest.(check (list (pair int int))) "nothing disconnected" [] o.Reroute.disconnected;
  Alcotest.(check (option (list int)))
    "detour through 3" (Some [ 1; 3; 4 ])
    (Syn.route o.Reroute.arch ~src:1 ~dst:4);
  Alcotest.(check bool) "degraded routes valid" true (Syn.routes_valid o.Reroute.arch)

let test_reroute_disconnects () =
  let _, arch = line_arch () in
  let o = Reroute.apply arch ~faults:[ Fault.link 2 3 ] in
  Alcotest.(check (list (pair int int))) "short flow kept" [ (1, 2) ] o.Reroute.kept;
  Alcotest.(check (list (pair int int))) "cut flow reported" [ (1, 3) ] o.Reroute.disconnected;
  Alcotest.(check (option (list int)))
    "cut flow dropped from the table" None
    (Syn.route o.Reroute.arch ~src:1 ~dst:3)

let test_reroute_dead_switch () =
  let _, arch = line_arch () in
  let o = Reroute.apply arch ~faults:[ Fault.switch 2 ] in
  (* switch 2 takes both flows with it *)
  Alcotest.(check (list (pair int int)))
    "both flows disconnected"
    [ (1, 2); (1, 3) ]
    o.Reroute.disconnected

(* ---------------------------------------------------------------- *)
(* One burst per fault set                                          *)

(* One fault set's run, from a campaign over just that set: its engine
   ran the fault-free baseline first and is reset for the fault set. *)
let burst ?max_cycles acg arch faults =
  let spec = Campaign.Fault_sets [ faults ] in
  List.hd (Campaign.run ?max_cycles ~name:"burst" ~seed:0 ~spec acg arch).Campaign.runs

let check_classified (r : Campaign.run_result) =
  Alcotest.(check int) "delivered + dropped + stranded = injected" r.Campaign.injected
    (r.Campaign.delivered + r.Campaign.dropped + r.Campaign.stranded)

let test_failed_link_rerouted () =
  let acg, arch = diamond_arch () in
  let base = burst acg arch [] in
  let r = burst acg arch [ Fault.link 1 2 ] in
  check_classified r;
  Alcotest.(check int) "delivered" 1 r.Campaign.delivered;
  Alcotest.(check int) "nothing dropped" 0 r.Campaign.dropped;
  Alcotest.(check int) "nothing disconnected" 0 r.Campaign.disconnected_pairs;
  Alcotest.(check bool) "drained cleanly" true r.Campaign.engine_ok;
  (* the detour through 3 is as long as the route over 2 *)
  Alcotest.(check (float 1e-9)) "same latency" base.Campaign.avg_latency r.Campaign.avg_latency

let test_permanent_disconnection_drops () =
  let acg, arch = line_arch () in
  let r = burst acg arch [ Fault.link 2 3 ] in
  check_classified r;
  Alcotest.(check int) "both flows injected" 2 r.Campaign.injected;
  Alcotest.(check int) "the short flow delivered" 1 r.Campaign.delivered;
  Alcotest.(check int) "the cut flow dropped" 1 r.Campaign.dropped;
  Alcotest.(check int) "nothing stranded" 0 r.Campaign.stranded;
  Alcotest.(check int) "one pair disconnected" 1 r.Campaign.disconnected_pairs;
  Alcotest.(check (float 1e-9)) "delivered fraction" 0.5 r.Campaign.delivered_fraction

let test_dead_destination_drops () =
  let acg, arch = line_arch () in
  let r = burst acg arch [ Fault.switch 3 ] in
  check_classified r;
  Alcotest.(check int) "the flow into the dead switch dropped" 1 r.Campaign.dropped;
  Alcotest.(check int) "the other delivered" 1 r.Campaign.delivered;
  Alcotest.(check bool) "drained cleanly" true r.Campaign.engine_ok

let test_failed_via_switch_drops () =
  let acg, arch = line_arch () in
  let r = burst acg arch [ Fault.switch 2 ] in
  check_classified r;
  Alcotest.(check int) "not delivered (2 was the only via, and a destination)" 0
    r.Campaign.delivered;
  Alcotest.(check int) "both dropped" 2 r.Campaign.dropped;
  Alcotest.(check int) "nothing stranded" 0 r.Campaign.stranded

let test_limit_reports_stranded () =
  let acg, arch = diamond_arch () in
  let r = burst ~max_cycles:2 acg arch [] in
  check_classified r;
  Alcotest.(check int) "2 cycles cannot drain a 2-flit packet" 1 r.Campaign.stranded;
  Alcotest.(check bool) "flagged" false r.Campaign.engine_ok;
  let r = burst acg arch [] in
  Alcotest.(check int) "a full budget drains it" 0 r.Campaign.stranded

(* ---------------------------------------------------------------- *)
(* Hardening and campaigns                                          *)

let harden_ctx () =
  let acg, arch = line_arch () in
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp = Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:3 ~size_mm:2.0) in
  (acg, arch, Syn.harden ~tech ~fp arch)

let test_harden_adds_spares () =
  let _, arch, (hardened, spares) = harden_ctx () in
  Alcotest.(check bool) "the line needs spares" true (spares <> []);
  Alcotest.(check bool)
    "hardened has more links" true
    (Syn.link_count hardened > Syn.link_count arch);
  Alcotest.(check bool) "original routes preserved" true (Syn.routes_valid hardened);
  (* now no single link failure may disconnect any flow *)
  List.iter
    (fun link ->
      let o = Reroute.apply hardened ~faults:[ (fun (u, v) -> Fault.link u v) link ] in
      Alcotest.(check (list (pair int int)))
        "no disconnection under any single-link failure" [] o.Reroute.disconnected)
    (D.undirected_edges hardened.Syn.topology)

let test_campaign_classifies_everything () =
  let acg, arch = line_arch () in
  let rep = Campaign.run ~name:"line" ~seed:7 ~spec:Campaign.Single_link acg arch in
  Alcotest.(check int) "one run per link" 2 (List.length rep.Campaign.runs);
  Alcotest.(check int) "nothing stranded" 0 rep.Campaign.stranded_total;
  List.iter
    (fun (r : Campaign.run_result) ->
      Alcotest.(check int)
        "delivered + dropped = injected" r.Campaign.injected
        (r.Campaign.delivered + r.Campaign.dropped))
    (rep.Campaign.baseline :: rep.Campaign.runs);
  (* cutting either line link loses exactly one of the two flows *)
  Alcotest.(check bool) "the line does not survive" false rep.Campaign.survives_all;
  Alcotest.(check int) "both links critical" 2 rep.Campaign.critical_links;
  Alcotest.(check int)
    "criticality covers every link" 2
    (List.length rep.Campaign.criticality)

let test_campaign_hardened_survives () =
  let acg, _, (hardened, _) = harden_ctx () in
  let rep = Campaign.run ~name:"line+" ~seed:7 ~spec:Campaign.Single_link acg hardened in
  Alcotest.(check bool) "hardened line survives" true rep.Campaign.survives_all;
  Alcotest.(check (float 1e-9))
    "delivered fraction 1.0" 1.0 rep.Campaign.min_delivered_fraction;
  Alcotest.(check int) "no critical links left" 0 rep.Campaign.critical_links

let test_campaign_deterministic () =
  let acg, arch = diamond_arch () in
  let spec = Campaign.Multi_link { links = 2; samples = 5 } in
  let run () = Campaign.run ~name:"diamond" ~seed:11 ~spec acg arch in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical reports for one seed" true (a = b);
  Alcotest.(check int) "sampled size" 5 (List.length a.Campaign.runs)

(* ---------------------------------------------------------------- *)
(* Differential properties (shared with the fuzz harness)           *)

let qcheck_reroute_avoids_faults =
  QCheck.Test.make ~name:"reroute avoids failed links (oracle path search)" ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let acg = Fuzz.gen_acg ~rng:(Prng.create ~seed:(80_000 + k)) in
      match
        Fuzz.check ~library:(Noc_primitives.Library.default ()) "reroute-avoids-faults"
          acg
      with
      | Ok () -> true
      | Error detail -> QCheck.Test.fail_reportf "seed %d: %s" (80_000 + k) detail)

let qcheck_engine_reset =
  QCheck.Test.make ~name:"reset engine = fresh engine (fuzz property)" ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let acg = Fuzz.gen_acg ~rng:(Prng.create ~seed:(85_000 + k)) in
      match Fuzz.check ~library:(Noc_primitives.Library.default ()) "engine-reset" acg with
      | Ok () -> true
      | Error detail -> QCheck.Test.fail_reportf "seed %d: %s" (85_000 + k) detail)

(* ---------------------------------------------------------------- *)
(* Degradation against its reference                                *)

let library = lazy (Noc_primitives.Library.default ())

let custom_arch acg =
  let d, _ = Noc_core.Branch_bound.decompose ~library:(Lazy.force library) acg in
  Syn.custom acg d

let harden acg arch =
  fst (Syn.harden ~tech:Noc_energy.Technology.cmos_180nm ~fp:(Acg.grid_floorplan acg) arch)

(* every corpus scenario with its custom architecture and its hardened
   one, built once for the pins and the symmetry check *)
let corpus_archs =
  lazy
    (List.map
       (fun (s : Noc_benchkit.Corpus.scenario) ->
         let acg = s.Noc_benchkit.Corpus.acg in
         let custom = custom_arch acg in
         (s.Noc_benchkit.Corpus.name, acg, [ ("custom", custom); ("hardened", harden acg custom) ]))
       (Noc_benchkit.Corpus.default ()))

let survives g path =
  let rec ok = function
    | a :: (b :: _ as rest) -> D.mem_edge g a b && ok rest
    | [ _ ] | [] -> true
  in
  ok path

(* Degradation as a rebuild: every flow classified again into a new
   table, the three lists sorted, and the architecture closed and every
   route checked again by [Syn.make]. *)
let reference_apply arch ~faults =
  let g = Reroute.surviving_topology arch ~faults in
  let routes, kept, rerouted, disconnected =
    D.Edge_map.fold
      (fun (s, d) path (routes, kept, rer, disc) ->
        if not (D.mem_vertex g s && D.mem_vertex g d) then (routes, kept, rer, (s, d) :: disc)
        else if survives g path then (D.Edge_map.add (s, d) path routes, (s, d) :: kept, rer, disc)
        else
          match Noc_graph.Traversal.shortest_path g s d with
          | Some path' -> (D.Edge_map.add (s, d) path' routes, kept, (s, d) :: rer, disc)
          | None -> (routes, kept, rer, (s, d) :: disc))
      arch.Syn.routes
      (D.Edge_map.empty, [], [], [])
  in
  ( Syn.make ~topology:g ~routes,
    List.sort compare kept,
    List.sort compare rerouted,
    List.sort compare disconnected )

let random_faults rng arch =
  let topo = arch.Syn.topology in
  List.map
    (fun (u, v) -> Fault.link u v)
    (Prng.sample rng (Prng.int rng 4) (D.undirected_edges topo))
  @ List.map Fault.switch (Prng.sample rng (Prng.int rng 3) (D.vertex_list topo))

let qcheck_degrade_reference =
  QCheck.Test.make ~name:"degradation = rebuilt reference" ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let seed = 90_000 + k in
      let rng = Prng.create ~seed in
      let acg = Fuzz.gen_acg ~rng in
      let custom = custom_arch acg in
      let archs =
        match harden acg custom with
        | hardened -> [ ("custom", custom); ("hardened", hardened) ]
        | exception Invalid_argument _ ->
            (* [Syn.harden] gives up on a link whose endpoints touch no
               other link: no single spare reconnects them *)
            [ ("custom", custom) ]
      in
      List.for_all
        (fun (name, arch) ->
          let faults = random_faults rng arch in
          let o = Reroute.apply arch ~faults in
          let arch', kept, rerouted, disconnected = reference_apply arch ~faults in
          let differs what = QCheck.Test.fail_reportf "seed %d, %s: %s differ" seed name what in
          if not (D.equal o.Reroute.arch.Syn.topology arch'.Syn.topology) then
            differs "topologies"
          else if
            not (D.Edge_map.equal (List.equal Int.equal) o.Reroute.arch.Syn.routes arch'.Syn.routes)
          then differs "route maps"
          else if o.Reroute.kept <> kept then differs "kept flows"
          else if o.Reroute.rerouted <> rerouted then differs "rerouted flows"
          else if o.Reroute.disconnected <> disconnected then differs "disconnected flows"
          else true)
        archs)

(* Degradation skips the symmetric closure because the surviving subgraph
   of a symmetric topology is symmetric: every custom topology must be. *)
let test_custom_topologies_symmetric () =
  let symmetric what arch =
    let topo = arch.Syn.topology in
    Alcotest.(check bool) (what ^ " equals its undirected closure") true
      (D.equal topo (D.undirected_closure topo))
  in
  List.iter
    (fun (name, _, archs) -> symmetric name (List.assoc "custom" archs))
    (Lazy.force corpus_archs);
  for seed = 0 to 199 do
    symmetric
      (Printf.sprintf "fuzz seed %d" seed)
      (custom_arch (Fuzz.gen_acg ~rng:(Prng.create ~seed)))
  done

(* ---------------------------------------------------------------- *)
(* Connectivity pin                                                 *)

(* One MD5 per (scenario, architecture, campaign) over what a fault set
   does to connectivity: each run's fault targets, its injected,
   delivered and dropped counts, its delivered fraction and its
   disconnected pairs, then the report's critical links and verdict.
   Latency and cycles are left out, so the digests hold across engines
   and presets.  The constants were taken before the fault model moved
   onto the architecture; never regenerate them to make a change pass. *)

let pin_specs =
  [ ("single", Campaign.Single_link); ("multi2x8", Campaign.Multi_link { links = 2; samples = 8 }) ]

let campaign_digest (rep : Campaign.report) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (r : Campaign.run_result) ->
      List.iter
        (function
          | Fault.Link (u, v) -> Printf.bprintf b "L%d-%d " u v
          | Fault.Switch s -> Printf.bprintf b "S%d " s)
        r.Campaign.faults;
      Printf.bprintf b "| %d %d %d %h %d\n" r.Campaign.injected r.Campaign.delivered
        r.Campaign.dropped r.Campaign.delivered_fraction r.Campaign.disconnected_pairs)
    rep.Campaign.runs;
  Printf.bprintf b "critical %d survives %b\n" rep.Campaign.critical_links
    rep.Campaign.survives_all;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* every corpus scenario on its custom architecture and its hardened one,
   under both campaigns; the hardened single-link reports come back too *)
let connectivity_cases () =
  List.concat_map
    (fun (name, acg, archs) ->
      List.concat_map
        (fun (aname, arch) ->
          List.map
            (fun (cname, spec) ->
              let rep = Campaign.run ~name ~seed:42 ~spec acg arch in
              (Printf.sprintf "%s/%s/%s" name aname cname, rep))
            pin_specs)
        archs)
    (Lazy.force corpus_archs)

let pinned_connectivity =
  [
    ("fig2/custom/single", "6d3aa84d3563408f64bc8cdbfe3162d7");
    ("fig2/custom/multi2x8", "818ff1bbb875947af5b86f330057a54b");
    ("fig2/hardened/single", "6d3aa84d3563408f64bc8cdbfe3162d7");
    ("fig2/hardened/multi2x8", "818ff1bbb875947af5b86f330057a54b");
    ("fig5/custom/single", "ca4c36b01802052c8e6da1a9d4c8ecd3");
    ("fig5/custom/multi2x8", "9bb3bfc2b01fdb189d8625aca8fd9fd8");
    ("fig5/hardened/single", "ca4c36b01802052c8e6da1a9d4c8ecd3");
    ("fig5/hardened/multi2x8", "9bb3bfc2b01fdb189d8625aca8fd9fd8");
    ("aes/custom/single", "9668d455421d7de7a1a100a0309117b1");
    ("aes/custom/multi2x8", "5b9d36a9bd67878ab27e011802a31b3f");
    ("aes/hardened/single", "9668d455421d7de7a1a100a0309117b1");
    ("aes/hardened/multi2x8", "5b9d36a9bd67878ab27e011802a31b3f");
    ("vopd/custom/single", "896245f2e6c320681f652fb4d76fae35");
    ("vopd/custom/multi2x8", "41f4f2b92bb0c7d77248e45eb3487143");
    ("vopd/hardened/single", "961366956e14d8deba327d7f6e4a9714");
    ("vopd/hardened/multi2x8", "d2e26df3829c10f4813ec89bf58757ae");
    ("mpeg4/custom/single", "4a6874a6d58016cfcb50e0b9b5acac0a");
    ("mpeg4/custom/multi2x8", "19c1163dfc6a354e1aa22ee7fab1345f");
    ("mpeg4/hardened/single", "74ceaf54c3834227c1e77fea5b737fee");
    ("mpeg4/hardened/multi2x8", "5881570e9b2bb1cf7eb12564a4fcab03");
    ("fft16/custom/single", "5a4a9bb5d858497d393a827ca545c5d0");
    ("fft16/custom/multi2x8", "a997f0b089dd41333d802397d89a688c");
    ("fft16/hardened/single", "5a4a9bb5d858497d393a827ca545c5d0");
    ("fft16/hardened/multi2x8", "a997f0b089dd41333d802397d89a688c");
    ("tgff-automotive-s11/custom/single", "c449983c6374d406d7c0706d4215446b");
    ("tgff-automotive-s11/custom/multi2x8", "444c5b2630f0b488566c869630f0920a");
    ("tgff-automotive-s11/hardened/single", "720f27ac7b0e072f0c40a74639b0cdcb");
    ("tgff-automotive-s11/hardened/multi2x8", "55223a4f8d425ff1ac09c6db57afc8f5");
    ("tgff-telecom-s7/custom/single", "1fa696f590835bd6de8e84d6c823e528");
    ("tgff-telecom-s7/custom/multi2x8", "74fff0afff35f924e107b59fbe77288e");
    ("tgff-telecom-s7/hardened/single", "f4876f2e4130ac151ce25ff1e2e0be16");
    ("tgff-telecom-s7/hardened/multi2x8", "2bd3b45c66758439cf2ed733dcb43f20");
    ("tgff-12-s3/custom/single", "c3804e633facfb42c8e462be661ab285");
    ("tgff-12-s3/custom/multi2x8", "5d59e0a254620bda19365f683c468a51");
    ("tgff-12-s3/hardened/single", "118ef512601c48fd5ea1d0437e45530a");
    ("tgff-12-s3/hardened/multi2x8", "f447e84caa5d4d948cbb22b09d2013a8");
    ("tgff-16-s5/custom/single", "c07af494fbba475995a7e15aa86504c8");
    ("tgff-16-s5/custom/multi2x8", "b27e222650f408e9d76a5537d9992e36");
    ("tgff-16-s5/hardened/single", "c07af494fbba475995a7e15aa86504c8");
    ("tgff-16-s5/hardened/multi2x8", "b27e222650f408e9d76a5537d9992e36");
    ("rand-12-s1/custom/single", "ad894671b93ffd5dd7a6920645b905e3");
    ("rand-12-s1/custom/multi2x8", "6c33c56317892de2777deca0b6ba1439");
    ("rand-12-s1/hardened/single", "ad894671b93ffd5dd7a6920645b905e3");
    ("rand-12-s1/hardened/multi2x8", "6c33c56317892de2777deca0b6ba1439");
    ("rand-16-s2/custom/single", "b44b7717db9943f7c682cb3241da8529");
    ("rand-16-s2/custom/multi2x8", "81b9f393cfe6b769a0a80e6abfa41536");
    ("rand-16-s2/hardened/single", "b44b7717db9943f7c682cb3241da8529");
    ("rand-16-s2/hardened/multi2x8", "81b9f393cfe6b769a0a80e6abfa41536");
  ]

let test_connectivity_pinned () =
  let cases = connectivity_cases () in
  let got = List.map (fun (k, rep) -> (k, campaign_digest rep)) cases in
  (* the test's output log holds the table to paste when re-pinning *)
  List.iter (fun (k, h) -> Printf.printf "    (%S, %S);\n" k h) got;
  List.iter
    (fun (k, (rep : Campaign.report)) ->
      if String.ends_with ~suffix:"/hardened/single" k then
        Alcotest.(check (float 0.0)) (k ^ ": every flow survives") 1.0
          rep.Campaign.min_delivered_fraction)
    cases;
  Alcotest.(check int) "case count" (List.length pinned_connectivity) (List.length got);
  List.iter2
    (fun (k, want) (k', h) ->
      Alcotest.(check string) "case name" k k';
      Alcotest.(check string) k want h)
    pinned_connectivity got

(* ---------------------------------------------------------------- *)
(* Burst pin                                                        *)

(* One MD5 per (scenario, architecture, campaign, preset) over every
   field of every run, the baseline first, then the criticality list and
   the report's verdicts: unlike the connectivity pin it covers cycles,
   latencies and stranded packets, which a change to how the bursts are
   clocked would move.  The constants were taken before campaigns reused
   one engine across their fault sets; never regenerate them to make a
   change pass. *)

let burst_specs =
  [
    ("single", Campaign.Single_link, 42);
    ("multi2x8", Campaign.Multi_link { links = 2; samples = 8 }, 42);
    ("multi3x20", Campaign.Multi_link { links = 3; samples = 20 }, 7);
  ]

let burst_digest (rep : Campaign.report) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : Campaign.run_result) ->
      List.iter
        (function
          | Fault.Link (u, v) -> Printf.bprintf b "L%d-%d " u v
          | Fault.Switch s -> Printf.bprintf b "S%d " s)
        r.Campaign.faults;
      Printf.bprintf b "| %d %d %d %d %h %h %h %d %d %d %b\n" r.Campaign.injected
        r.Campaign.delivered r.Campaign.dropped r.Campaign.stranded
        r.Campaign.delivered_fraction r.Campaign.avg_latency r.Campaign.latency_factor
        r.Campaign.disconnected_pairs r.Campaign.retries r.Campaign.cycles
        r.Campaign.engine_ok)
    (rep.Campaign.baseline :: rep.Campaign.runs);
  List.iter
    (fun (c : Campaign.link_criticality) ->
      Printf.bprintf b "C%d-%d %h %h %d\n" (fst c.Campaign.link) (snd c.Campaign.link)
        c.Campaign.delivered_fraction c.Campaign.latency_factor c.Campaign.disconnected_pairs)
    rep.Campaign.criticality;
  Printf.bprintf b "%h %h %d %d %b %d %b\n" rep.Campaign.min_delivered_fraction
    rep.Campaign.max_latency_factor rep.Campaign.worst_disconnected_pairs
    rep.Campaign.critical_links rep.Campaign.survives_all rep.Campaign.stranded_total
    rep.Campaign.engine_validated;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_bursts =
  [
    ("fig2/custom/single/coarse", "a69ce8898dd5c1ee7ddbeeda661c7aba");
    ("fig2/custom/single/flit", "822fa9c72e3e0d24207bb990f2bbbd88");
    ("fig2/custom/multi2x8/coarse", "cb9cf54a75342595bcb3f1488b695f50");
    ("fig2/custom/multi2x8/flit", "029477e26c201041437b0a478920bfdb");
    ("fig2/custom/multi3x20/coarse", "72e95a17a7bff46fd13fd1df994c6347");
    ("fig2/custom/multi3x20/flit", "df8352041ddab0d41219193259b11388");
    ("fig2/hardened/single/coarse", "a69ce8898dd5c1ee7ddbeeda661c7aba");
    ("fig2/hardened/single/flit", "822fa9c72e3e0d24207bb990f2bbbd88");
    ("fig2/hardened/multi2x8/coarse", "cb9cf54a75342595bcb3f1488b695f50");
    ("fig2/hardened/multi2x8/flit", "029477e26c201041437b0a478920bfdb");
    ("fig2/hardened/multi3x20/coarse", "72e95a17a7bff46fd13fd1df994c6347");
    ("fig2/hardened/multi3x20/flit", "df8352041ddab0d41219193259b11388");
    ("fig5/custom/single/coarse", "c46e30189a7538eba9e9eb236af2d661");
    ("fig5/custom/single/flit", "2463577ef565dba87d163a85a4ba2059");
    ("fig5/custom/multi2x8/coarse", "fd21819fd3d1dc18d43eb21dc8a349c7");
    ("fig5/custom/multi2x8/flit", "990fb5cf92eee4193a867a46bfa7894c");
    ("fig5/custom/multi3x20/coarse", "636c64f2cd9cb1a36ad04535e90baac9");
    ("fig5/custom/multi3x20/flit", "f0262b22812a639e9ed883571c02f4bd");
    ("fig5/hardened/single/coarse", "c46e30189a7538eba9e9eb236af2d661");
    ("fig5/hardened/single/flit", "2463577ef565dba87d163a85a4ba2059");
    ("fig5/hardened/multi2x8/coarse", "fd21819fd3d1dc18d43eb21dc8a349c7");
    ("fig5/hardened/multi2x8/flit", "990fb5cf92eee4193a867a46bfa7894c");
    ("fig5/hardened/multi3x20/coarse", "636c64f2cd9cb1a36ad04535e90baac9");
    ("fig5/hardened/multi3x20/flit", "f0262b22812a639e9ed883571c02f4bd");
    ("aes/custom/single/coarse", "ffe8d074894ef09f12da121bbd8b7e71");
    ("aes/custom/single/flit", "2bdb897e90e9d47cfbd956d7ee8fde30");
    ("aes/custom/multi2x8/coarse", "88a46a6af7b5d1a614d8e72b3259b5de");
    ("aes/custom/multi2x8/flit", "57d6adeae6c0bbe45a97cc755aa915cd");
    ("aes/custom/multi3x20/coarse", "0da6602d253515d60e7be0923ebf241b");
    ("aes/custom/multi3x20/flit", "ee93ebec5875753930f8123038b328ae");
    ("aes/hardened/single/coarse", "ffe8d074894ef09f12da121bbd8b7e71");
    ("aes/hardened/single/flit", "2bdb897e90e9d47cfbd956d7ee8fde30");
    ("aes/hardened/multi2x8/coarse", "88a46a6af7b5d1a614d8e72b3259b5de");
    ("aes/hardened/multi2x8/flit", "57d6adeae6c0bbe45a97cc755aa915cd");
    ("aes/hardened/multi3x20/coarse", "0da6602d253515d60e7be0923ebf241b");
    ("aes/hardened/multi3x20/flit", "ee93ebec5875753930f8123038b328ae");
    ("vopd/custom/single/coarse", "add59bb77f250edbd94453227a121dd8");
    ("vopd/custom/single/flit", "716b01292d54cdea6a205d3952fbf628");
    ("vopd/custom/multi2x8/coarse", "63df9a4fb8df7c37b0d2710d0edbb94f");
    ("vopd/custom/multi2x8/flit", "e5bf8a911631206db30ae6a71c107d9b");
    ("vopd/custom/multi3x20/coarse", "001ea0f1166c096faea5e878e4b6a220");
    ("vopd/custom/multi3x20/flit", "f15bd7a8195d2dbbe18e612295a1cc20");
    ("vopd/hardened/single/coarse", "e2e613c5dbd1291fd8770ca7a7784a3c");
    ("vopd/hardened/single/flit", "0477d805ee1d2ad790d19748050a449c");
    ("vopd/hardened/multi2x8/coarse", "e0ae08f49803acf45087c6d6b5f7ddfd");
    ("vopd/hardened/multi2x8/flit", "f544fafe536b997f1f75518c62ea1d28");
    ("vopd/hardened/multi3x20/coarse", "749c1a70e24d597bb11e4b0dafa58c4c");
    ("vopd/hardened/multi3x20/flit", "604d2230c9e9be1600920a73fd52bc89");
    ("mpeg4/custom/single/coarse", "3a8b443d8144eb51e3d1367c5c5c9690");
    ("mpeg4/custom/single/flit", "af700eda896913fbea65c744a4251fb2");
    ("mpeg4/custom/multi2x8/coarse", "6898062701238411b5f077a65f71dac2");
    ("mpeg4/custom/multi2x8/flit", "cadd45e6b502a9d2a8137bd81cb8ccf5");
    ("mpeg4/custom/multi3x20/coarse", "1284d8392146e7c068f4668531ecf2eb");
    ("mpeg4/custom/multi3x20/flit", "b8d5920d480b4f4f44afbec1671a0f7c");
    ("mpeg4/hardened/single/coarse", "723da2b18b3fb976cec5ff3b9b3ed85d");
    ("mpeg4/hardened/single/flit", "0f8fa415e94ecc9742cd22fe479c4f1e");
    ("mpeg4/hardened/multi2x8/coarse", "9b2f19a5c6f7c6156c4e133ebc0de1c2");
    ("mpeg4/hardened/multi2x8/flit", "70f7d88d51ae2d4f66fbdff9e8996c0b");
    ("mpeg4/hardened/multi3x20/coarse", "557ecbf82fb1990aa33f0367e65ea033");
    ("mpeg4/hardened/multi3x20/flit", "87e7d617139b50dc67997a4331392b58");
    ("fft16/custom/single/coarse", "2c6192f59db6957c1e290eb9f6d0347a");
    ("fft16/custom/single/flit", "549b0d22541fd19cc690742f71010375");
    ("fft16/custom/multi2x8/coarse", "fa62ff8bc41f09ec8533debed63297ca");
    ("fft16/custom/multi2x8/flit", "0cf683283e2fdc37f4fa5734929ab42f");
    ("fft16/custom/multi3x20/coarse", "0c2ff306e8904aca8b6317e583a7dece");
    ("fft16/custom/multi3x20/flit", "ac2ae06aff495deaf7735b878700f1d8");
    ("fft16/hardened/single/coarse", "2c6192f59db6957c1e290eb9f6d0347a");
    ("fft16/hardened/single/flit", "549b0d22541fd19cc690742f71010375");
    ("fft16/hardened/multi2x8/coarse", "fa62ff8bc41f09ec8533debed63297ca");
    ("fft16/hardened/multi2x8/flit", "0cf683283e2fdc37f4fa5734929ab42f");
    ("fft16/hardened/multi3x20/coarse", "0c2ff306e8904aca8b6317e583a7dece");
    ("fft16/hardened/multi3x20/flit", "ac2ae06aff495deaf7735b878700f1d8");
    ("tgff-automotive-s11/custom/single/coarse", "6ef098e04b1391677fb2ab66ab688ac6");
    ("tgff-automotive-s11/custom/single/flit", "c1c7217c5139075ca45ca0d7af4f90b7");
    ("tgff-automotive-s11/custom/multi2x8/coarse", "694b98d43246211989ac0aeba5236e38");
    ("tgff-automotive-s11/custom/multi2x8/flit", "b2e7b13f93197e964b4a68f72521981b");
    ("tgff-automotive-s11/custom/multi3x20/coarse", "5bfb3a3b05f1dbab0e272c6c2e28b754");
    ("tgff-automotive-s11/custom/multi3x20/flit", "b1aa7beed8dc2c864ad62b50e73b80e6");
    ("tgff-automotive-s11/hardened/single/coarse", "b63e715c667e8f53fbc6b46fc1b4c372");
    ("tgff-automotive-s11/hardened/single/flit", "42068f016d95b2c4488ec720921e9570");
    ("tgff-automotive-s11/hardened/multi2x8/coarse", "26d7b6dfc4a00df83c54881dff5b670f");
    ("tgff-automotive-s11/hardened/multi2x8/flit", "699cb0b8790ad163b39be4e72ea1bed7");
    ("tgff-automotive-s11/hardened/multi3x20/coarse", "d3cb6af73e732edc689bd977fc697dde");
    ("tgff-automotive-s11/hardened/multi3x20/flit", "a5551a2ea4968f9ac1b39f91ca365386");
    ("tgff-telecom-s7/custom/single/coarse", "e2c1438b218e20588e0a2dc268655d0a");
    ("tgff-telecom-s7/custom/single/flit", "4a4b31dcecade0ab24bdc3080c115a3a");
    ("tgff-telecom-s7/custom/multi2x8/coarse", "8c4939a536a51ada1d3e4d37644c4c3f");
    ("tgff-telecom-s7/custom/multi2x8/flit", "db783017af70da678dffc9d30f020082");
    ("tgff-telecom-s7/custom/multi3x20/coarse", "72af6afea0683630306a98693a8941d4");
    ("tgff-telecom-s7/custom/multi3x20/flit", "f0b322e5e3161092f2aaa20b4d56a5c1");
    ("tgff-telecom-s7/hardened/single/coarse", "9d9f00e4b8c06bbf646b739e227fa191");
    ("tgff-telecom-s7/hardened/single/flit", "258de03b01359cdb68e26c8be85d7f9c");
    ("tgff-telecom-s7/hardened/multi2x8/coarse", "d41aa63e3ad4f25e9f91ab305dd0e0fd");
    ("tgff-telecom-s7/hardened/multi2x8/flit", "e5b7d4a4b38f99ecad7ee8e09605e4e0");
    ("tgff-telecom-s7/hardened/multi3x20/coarse", "10ad8a07240c8dbb608b1a451536c1ac");
    ("tgff-telecom-s7/hardened/multi3x20/flit", "4ecabc8c6d7fc6426975030ca62fd93f");
    ("tgff-12-s3/custom/single/coarse", "d42cd6470ae4c46084961739e1c62c3c");
    ("tgff-12-s3/custom/single/flit", "4ea31bb5c547564d5b1d7136ea67cc7d");
    ("tgff-12-s3/custom/multi2x8/coarse", "6a55cf781a02ad9b803e98bbd57f2de3");
    ("tgff-12-s3/custom/multi2x8/flit", "aa01c366437b112b33d4d04f8a327f4d");
    ("tgff-12-s3/custom/multi3x20/coarse", "b8a19b63a22304dd0e3bd1126304c921");
    ("tgff-12-s3/custom/multi3x20/flit", "b72e92d651ef44ee1513e3393f5f5662");
    ("tgff-12-s3/hardened/single/coarse", "8d76ca75cfa908131b0643a68a3adf5e");
    ("tgff-12-s3/hardened/single/flit", "8de94b663844f087998effa358944310");
    ("tgff-12-s3/hardened/multi2x8/coarse", "b5011731779857c22a1f4bd96d4e3e48");
    ("tgff-12-s3/hardened/multi2x8/flit", "a09d24a3f5c5a45d4db4d99b307c0bdc");
    ("tgff-12-s3/hardened/multi3x20/coarse", "01118b7acb8954e829d8abcd590861bb");
    ("tgff-12-s3/hardened/multi3x20/flit", "72bfd692224e0a1e518e3bed792f5887");
    ("tgff-16-s5/custom/single/coarse", "2e2bf2aae477562650e4df75cf825ea6");
    ("tgff-16-s5/custom/single/flit", "0a61bee04bca6a4c2cc164f9bfbda329");
    ("tgff-16-s5/custom/multi2x8/coarse", "6cf1be2f82759f8f24c114db21cae28f");
    ("tgff-16-s5/custom/multi2x8/flit", "4ddfd67c0a227e82288f029ded38aa83");
    ("tgff-16-s5/custom/multi3x20/coarse", "c511b389f238d0ddd6c8834f35c28d68");
    ("tgff-16-s5/custom/multi3x20/flit", "b9b3edb026c01acad3e67801491cccb4");
    ("tgff-16-s5/hardened/single/coarse", "2e2bf2aae477562650e4df75cf825ea6");
    ("tgff-16-s5/hardened/single/flit", "0a61bee04bca6a4c2cc164f9bfbda329");
    ("tgff-16-s5/hardened/multi2x8/coarse", "6cf1be2f82759f8f24c114db21cae28f");
    ("tgff-16-s5/hardened/multi2x8/flit", "4ddfd67c0a227e82288f029ded38aa83");
    ("tgff-16-s5/hardened/multi3x20/coarse", "c511b389f238d0ddd6c8834f35c28d68");
    ("tgff-16-s5/hardened/multi3x20/flit", "b9b3edb026c01acad3e67801491cccb4");
    ("rand-12-s1/custom/single/coarse", "7cc596b6ec146d75fb61f88f7aa182bd");
    ("rand-12-s1/custom/single/flit", "09309397be36e5c3a059768b8beb4e8f");
    ("rand-12-s1/custom/multi2x8/coarse", "11098449aaa6e396c2e9c639f3dbf6cd");
    ("rand-12-s1/custom/multi2x8/flit", "8090dc871a3d77e10785adb755767563");
    ("rand-12-s1/custom/multi3x20/coarse", "f0817b295d6d1fbc4a7b045b1bfb7b90");
    ("rand-12-s1/custom/multi3x20/flit", "53f4da69fddd6df14d3bde21a436b507");
    ("rand-12-s1/hardened/single/coarse", "7cc596b6ec146d75fb61f88f7aa182bd");
    ("rand-12-s1/hardened/single/flit", "09309397be36e5c3a059768b8beb4e8f");
    ("rand-12-s1/hardened/multi2x8/coarse", "11098449aaa6e396c2e9c639f3dbf6cd");
    ("rand-12-s1/hardened/multi2x8/flit", "8090dc871a3d77e10785adb755767563");
    ("rand-12-s1/hardened/multi3x20/coarse", "f0817b295d6d1fbc4a7b045b1bfb7b90");
    ("rand-12-s1/hardened/multi3x20/flit", "53f4da69fddd6df14d3bde21a436b507");
    ("rand-16-s2/custom/single/coarse", "1a4bcf90abdf6c6d1ffa328aad482988");
    ("rand-16-s2/custom/single/flit", "46758727dffe035c9314fc72fcc56a6f");
    ("rand-16-s2/custom/multi2x8/coarse", "d40cb7c729c51b2897a6875162f68d69");
    ("rand-16-s2/custom/multi2x8/flit", "09f576e5c02488140a605a79d5717a0e");
    ("rand-16-s2/custom/multi3x20/coarse", "95477d11df87efa818d5dd7390432e3e");
    ("rand-16-s2/custom/multi3x20/flit", "69a02b57b9af6d22c4a1b37b0d3fd8bb");
    ("rand-16-s2/hardened/single/coarse", "1a4bcf90abdf6c6d1ffa328aad482988");
    ("rand-16-s2/hardened/single/flit", "46758727dffe035c9314fc72fcc56a6f");
    ("rand-16-s2/hardened/multi2x8/coarse", "d40cb7c729c51b2897a6875162f68d69");
    ("rand-16-s2/hardened/multi2x8/flit", "09f576e5c02488140a605a79d5717a0e");
    ("rand-16-s2/hardened/multi3x20/coarse", "95477d11df87efa818d5dd7390432e3e");
    ("rand-16-s2/hardened/multi3x20/flit", "69a02b57b9af6d22c4a1b37b0d3fd8bb");
  ]

let test_bursts_pinned () =
  let got =
    List.concat_map
      (fun (name, acg, archs) ->
        List.concat_map
          (fun (aname, arch) ->
            List.concat_map
              (fun (cname, spec, seed) ->
                List.map
                  (fun engine ->
                    let rep =
                      Campaign.run ~validate_engine:engine ~name ~seed ~spec acg arch
                    in
                    ( Printf.sprintf "%s/%s/%s/%s" name aname cname
                        (Noc_sim.Engine.kind_name engine),
                      burst_digest rep ))
                  Noc_sim.Engine.all_kinds)
              burst_specs)
          archs)
      (Lazy.force corpus_archs)
  in
  (* the test's output log holds the table to paste when re-pinning *)
  List.iter (fun (k, h) -> Printf.printf "    (%S, %S);\n" k h) got;
  Alcotest.(check int) "case count" (List.length pinned_bursts) (List.length got);
  List.iter2
    (fun (k, want) (k', h) ->
      Alcotest.(check string) "case name" k k';
      Alcotest.(check string) k want h)
    pinned_bursts got

let suite =
  ( "resil",
    [
      Alcotest.test_case "fault model" `Quick test_fault_model;
      Alcotest.test_case "reroute: diamond detour" `Quick test_reroute_diamond;
      Alcotest.test_case "reroute: disconnection" `Quick test_reroute_disconnects;
      Alcotest.test_case "reroute: dead switch" `Quick test_reroute_dead_switch;
      Alcotest.test_case "sim: failed link rerouted" `Quick test_failed_link_rerouted;
      Alcotest.test_case "sim: permanent cut drops" `Quick
        test_permanent_disconnection_drops;
      Alcotest.test_case "sim: dead destination" `Quick test_dead_destination_drops;
      Alcotest.test_case "sim: failed via switch drops" `Quick test_failed_via_switch_drops;
      Alcotest.test_case "sim: limit reports stranded" `Quick test_limit_reports_stranded;
      Alcotest.test_case "harden adds spares" `Quick test_harden_adds_spares;
      Alcotest.test_case "campaign classifies everything" `Quick
        test_campaign_classifies_everything;
      Alcotest.test_case "campaign: hardened survives" `Quick
        test_campaign_hardened_survives;
      Alcotest.test_case "campaign deterministic" `Quick test_campaign_deterministic;
      QCheck_alcotest.to_alcotest qcheck_reroute_avoids_faults;
      Alcotest.test_case "campaign connectivity is pinned" `Quick test_connectivity_pinned;
      Alcotest.test_case "campaign bursts are pinned" `Quick test_bursts_pinned;
      QCheck_alcotest.to_alcotest qcheck_degrade_reference;
      QCheck_alcotest.to_alcotest qcheck_engine_reset;
      Alcotest.test_case "custom topologies are symmetric" `Quick
        test_custom_topologies_symmetric;
    ] )
