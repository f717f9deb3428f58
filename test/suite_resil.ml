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

let check_classified (r : Campaign.run_result) =
  Alcotest.(check int) "delivered + dropped + stranded = injected" r.Campaign.injected
    (r.Campaign.delivered + r.Campaign.dropped + r.Campaign.stranded)

let test_failed_link_rerouted () =
  let acg, arch = diamond_arch () in
  let base = Campaign.burst acg arch [] in
  let r = Campaign.burst acg arch [ Fault.link 1 2 ] in
  check_classified r;
  Alcotest.(check int) "delivered" 1 r.Campaign.delivered;
  Alcotest.(check int) "nothing dropped" 0 r.Campaign.dropped;
  Alcotest.(check int) "nothing disconnected" 0 r.Campaign.disconnected_pairs;
  Alcotest.(check bool) "drained cleanly" true r.Campaign.engine_ok;
  (* the detour through 3 is as long as the route over 2 *)
  Alcotest.(check (float 1e-9)) "same latency" base.Campaign.avg_latency r.Campaign.avg_latency

let test_permanent_disconnection_drops () =
  let acg, arch = line_arch () in
  let r = Campaign.burst acg arch [ Fault.link 2 3 ] in
  check_classified r;
  Alcotest.(check int) "both flows injected" 2 r.Campaign.injected;
  Alcotest.(check int) "the short flow delivered" 1 r.Campaign.delivered;
  Alcotest.(check int) "the cut flow dropped" 1 r.Campaign.dropped;
  Alcotest.(check int) "nothing stranded" 0 r.Campaign.stranded;
  Alcotest.(check int) "one pair disconnected" 1 r.Campaign.disconnected_pairs;
  Alcotest.(check (float 1e-9)) "delivered fraction" 0.5 r.Campaign.delivered_fraction

let test_dead_destination_drops () =
  let acg, arch = line_arch () in
  let r = Campaign.burst acg arch [ Fault.switch 3 ] in
  check_classified r;
  Alcotest.(check int) "the flow into the dead switch dropped" 1 r.Campaign.dropped;
  Alcotest.(check int) "the other delivered" 1 r.Campaign.delivered;
  Alcotest.(check bool) "drained cleanly" true r.Campaign.engine_ok

let test_failed_via_switch_drops () =
  let acg, arch = line_arch () in
  let r = Campaign.burst acg arch [ Fault.switch 2 ] in
  check_classified r;
  Alcotest.(check int) "not delivered (2 was the only via, and a destination)" 0
    r.Campaign.delivered;
  Alcotest.(check int) "both dropped" 2 r.Campaign.dropped;
  Alcotest.(check int) "nothing stranded" 0 r.Campaign.stranded

let test_limit_reports_stranded () =
  let acg, arch = diamond_arch () in
  let r = Campaign.burst ~max_cycles:2 acg arch [] in
  check_classified r;
  Alcotest.(check int) "2 cycles cannot drain a 2-flit packet" 1 r.Campaign.stranded;
  Alcotest.(check bool) "flagged" false r.Campaign.engine_ok;
  let r = Campaign.burst acg arch [] in
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
(* Differential property (shared with the fuzz harness)             *)

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
  let library = Noc_primitives.Library.default () in
  let tech = Noc_energy.Technology.cmos_180nm in
  List.concat_map
    (fun (s : Noc_benchkit.Corpus.scenario) ->
      let acg = s.Noc_benchkit.Corpus.acg in
      let d, _ = Noc_core.Branch_bound.decompose ~library acg in
      let custom = Syn.custom acg d in
      let hardened, _ = Syn.harden ~tech ~fp:(Acg.grid_floorplan acg) custom in
      List.concat_map
        (fun (aname, arch) ->
          List.map
            (fun (cname, spec) ->
              let rep = Campaign.run ~name:s.Noc_benchkit.Corpus.name ~seed:42 ~spec acg arch in
              (Printf.sprintf "%s/%s/%s" s.Noc_benchkit.Corpus.name aname cname, rep))
            pin_specs)
        [ ("custom", custom); ("hardened", hardened) ])
    (Noc_benchkit.Corpus.default ())

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
    ] )
