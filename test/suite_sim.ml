(* Tests for the flit engine as the network simulator: delivery
   semantics, latency arithmetic, contention serialization, determinism,
   activity counters, the power/energy accounting and the routing
   policies.  Unless a test says otherwise it runs the [Coarse] preset:
   one 8-bit flit per link cycle, so a flit crosses a link in one cycle
   and the uncontended latency of [n] flits over [h >= 1] hops is
   [1 + rd + h * (rd + 1) + (n - 1)] with [rd = 1] (flitsim.mli). *)

module D = Noc_graph.Digraph
module G = Noc_graph.Generators
module Acg = Noc_core.Acg
module Syn = Noc_core.Synthesis
module Engine = Noc_sim.Engine
module Stats = Noc_sim.Stats
module Traffic = Noc_sim.Traffic
module Flit = Noc_sim.Flitsim
module Prng = Noc_util.Prng

(* A 1x4 mesh (a path) carrying flows along it: easy to reason about. *)
let line_arch () =
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.1 (D.of_edges [ (1, 2); (1, 4); (2, 3) ]) in
  (acg, Syn.mesh ~rows:1 ~cols:4 acg)

let coarse ?policy arch = Flit.create ~config:(Engine.config Engine.Coarse) ?policy arch

let drain net =
  match Flit.run_until_idle net with
  | `Idle -> ()
  | `Deadlock -> Alcotest.fail "deadlock"
  | `Limit n -> Alcotest.failf "cycle limit with %d pending" n

let test_single_packet_latency () =
  let _, arch = line_arch () in
  let net = coarse arch in
  (* NI -> VOQ (cycle 1), router pipeline (1), link (1), downstream
     pipeline (1), ejection: delivered at cycle 4 *)
  let _ = Flit.inject net ~src:1 ~dst:2 in
  drain net;
  match Flit.deliveries net with
  | [ { Flit.delivered_at; packet } ] ->
      Alcotest.(check int) "one hop latency" 4 delivered_at;
      Alcotest.(check int) "injected at 0" 0 packet.Noc_sim.Packet.injected_at
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 delivery, got %d" (List.length ds))

let test_multi_hop_latency () =
  let _, arch = line_arch () in
  let net = coarse arch in
  (* 3 hops: per hop router (1) + link (1), plus NI (1) and the
     destination router (1) -> 8 cycles *)
  let _ = Flit.inject net ~src:1 ~dst:4 in
  drain net;
  match Flit.deliveries net with
  | [ { Flit.delivered_at; _ } ] -> Alcotest.(check int) "three hops" 8 delivered_at
  | _ -> Alcotest.fail "one delivery expected"

let test_serialization_delay () =
  let _, arch = line_arch () in
  let net = coarse arch in
  (* 4 flits over one hop: the tail trails the head by 3 link cycles *)
  let _ = Flit.inject ~size_flits:4 net ~src:1 ~dst:2 in
  drain net;
  match Flit.deliveries net with
  | [ { Flit.delivered_at; _ } ] -> Alcotest.(check int) "serialized" 7 delivered_at
  | _ -> Alcotest.fail "one delivery expected"

let test_contention_serializes () =
  let _, arch = line_arch () in
  let net = coarse arch in
  (* two packets from 1 to 2 share the source NI and channel (1,2): the
     second trails the first by one flit cycle *)
  let _ = Flit.inject net ~src:1 ~dst:2 in
  let _ = Flit.inject net ~src:1 ~dst:2 in
  drain net;
  let ds = Flit.deliveries net in
  Alcotest.(check int) "both delivered" 2 (List.length ds);
  let times = List.map (fun d -> d.Flit.delivered_at) ds |> List.sort compare in
  Alcotest.(check (list int)) "one cycle apart" [ 4; 5 ] times

let test_fifo_order_on_channel () =
  let _, arch = line_arch () in
  let net = coarse arch in
  let id1 = Flit.inject net ~src:1 ~dst:2 in
  let id2 = Flit.inject net ~src:1 ~dst:2 in
  drain net;
  match Flit.deliveries net with
  | [ a; b ] ->
      Alcotest.(check int) "first injected first delivered" id1
        a.Flit.packet.Noc_sim.Packet.id;
      Alcotest.(check int) "second" id2 b.Flit.packet.Noc_sim.Packet.id
  | _ -> Alcotest.fail "two deliveries expected"

let test_inject_no_route () =
  let _, arch = line_arch () in
  let net = coarse arch in
  Alcotest.check_raises "no route" (Invalid_argument "Flitsim.inject: no route 4 -> 1")
    (fun () -> ignore (Flit.inject net ~src:4 ~dst:1))

let test_bad_config () =
  let _, arch = line_arch () in
  Alcotest.check_raises "bad router delay"
    (Invalid_argument "Flitsim.create: router_delay must be >= 1") (fun () ->
      ignore
        (Flit.create ~config:{ (Engine.config Engine.Coarse) with router_delay = 0 } arch))

let test_drain_deliveries () =
  let _, arch = line_arch () in
  let net = coarse arch in
  let _ = Flit.inject net ~src:1 ~dst:2 in
  drain net;
  Alcotest.(check int) "first drain" 1 (List.length (Flit.drain_deliveries net));
  Alcotest.(check int) "second drain empty" 0 (List.length (Flit.drain_deliveries net));
  let _ = Flit.inject net ~src:1 ~dst:4 in
  drain net;
  (match Flit.drain_deliveries net with
  | [ d ] -> Alcotest.(check int) "only the new delivery" 4 d.Flit.packet.Noc_sim.Packet.dst
  | ds -> Alcotest.failf "expected 1 fresh delivery, got %d" (List.length ds));
  (* cumulative list unaffected *)
  Alcotest.(check int) "deliveries kept" 2 (List.length (Flit.deliveries net))

let test_activity_counters () =
  let _, arch = line_arch () in
  let net = coarse arch in
  let _ = Flit.inject net ~src:1 ~dst:4 in
  drain net;
  Alcotest.(check int) "3 link traversals" 3 (Flit.flit_hops net);
  let total_switch = D.Vmap.fold (fun _ f acc -> acc + f) (Flit.switch_flits net) 0 in
  Alcotest.(check int) "3 link sends + 1 ejection" 4 total_switch;
  let l12 = Option.value ~default:0 (D.Edge_map.find_opt (1, 2) (Flit.link_flits net)) in
  Alcotest.(check int) "link 1-2 carried 1 flit" 1 l12

let test_payload_carried () =
  let _, arch = line_arch () in
  let net = coarse arch in
  let payload = Bytes.of_string "x" in
  let _ = Flit.inject ~payload ~tag:42 net ~src:1 ~dst:4 in
  drain net;
  match Flit.deliveries net with
  | [ { Flit.packet; _ } ] ->
      Alcotest.(check string) "payload" "x" (Bytes.to_string packet.Noc_sim.Packet.payload);
      Alcotest.(check int) "tag" 42 packet.Noc_sim.Packet.tag
  | _ -> Alcotest.fail "one delivery expected"

let test_determinism () =
  let acg = Noc_aes.Distributed.acg () in
  let arch = Syn.mesh ~rows:4 ~cols:4 acg in
  let run () =
    let net = coarse arch in
    let rng = Prng.create ~seed:3 in
    let flows = Traffic.flows_of_acg ~rate_scale:0.05 acg in
    let verdict = Traffic.run ~rng ~net ~flows ~cycles:500 () in
    let s = Engine.summary net in
    (verdict, s.Stats.packets, s.Stats.avg_latency)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_summary_empty () =
  let s = Stats.summarize [] in
  Alcotest.(check int) "no packets" 0 s.Stats.packets;
  Alcotest.(check (float 1e-9)) "zero latency" 0.0 s.Stats.avg_latency

let test_summary_fields () =
  let _, arch = line_arch () in
  let net = coarse arch in
  let _ = Flit.inject net ~src:1 ~dst:2 in
  let _ = Flit.inject net ~src:1 ~dst:4 in
  drain net;
  let s = Engine.summary net in
  Alcotest.(check int) "packets" 2 s.Stats.packets;
  Alcotest.(check int) "min" 4 s.Stats.min_latency;
  (* both packets leave through node 1's NI, one flit per cycle: the
     3-hop packet enters the fabric a cycle late, 8 + 1 *)
  Alcotest.(check int) "max" 9 s.Stats.max_latency;
  Alcotest.(check (float 1e-9)) "avg" 6.5 s.Stats.avg_latency;
  Alcotest.(check (float 1e-9)) "avg hops" 2.0 s.Stats.avg_hops

let test_energy_accounting () =
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp = Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:4 ~size_mm:2.0) in
  let acg = Acg.uniform ~volume:8 ~bandwidth:0.1 (D.of_edges [ (1, 2) ]) in
  let arch = Syn.mesh ~rows:2 ~cols:2 acg in
  let net = coarse arch in
  let _ = Flit.inject net ~src:1 ~dst:2 in
  drain net;
  (* one flit of 8 bits: 2 switch traversals + one 2mm link *)
  let expect_dyn =
    (2.0 *. 8.0 *. tech.Noc_energy.Technology.es_bit)
    +. (8.0 *. Noc_energy.Technology.link_energy_per_bit tech ~length_mm:2.0)
  in
  Alcotest.(check (float 1e-6)) "dynamic energy" expect_dyn
    (Stats.dynamic_energy_pj ~tech ~fp net);
  Alcotest.(check bool) "clock energy positive" true (Stats.clock_energy_pj ~tech net > 0.);
  Alcotest.(check bool) "total >= dynamic" true
    (Stats.total_energy_pj ~tech ~fp net >= Stats.dynamic_energy_pj ~tech ~fp net);
  Alcotest.(check bool) "power positive" true (Stats.avg_power_mw ~tech ~fp net > 0.)

let test_buffer_occupancy_counted () =
  let _, arch = line_arch () in
  let net = coarse arch in
  (* heavy contention on channel (1,2) *)
  for _ = 1 to 10 do
    ignore (Flit.inject ~size_flits:4 net ~src:1 ~dst:2)
  done;
  drain net;
  Alcotest.(check bool) "queue occupancy recorded" true (Flit.buffer_flit_cycles net > 0)

let test_traffic_uniform_when_no_bandwidth () =
  (* zero-bandwidth ACGs fall back to uniform rates *)
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 (D.of_edges [ (1, 2); (2, 3) ]) in
  let flows = Traffic.flows_of_acg ~rate_scale:0.07 acg in
  List.iter
    (fun f -> Alcotest.(check (float 1e-9)) "uniform rate" 0.07 f.Traffic.rate)
    flows

let test_wormhole_empty_summary () =
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.1 (D.of_edges [ (1, 2) ]) in
  let arch = Syn.mesh ~rows:1 ~cols:2 acg in
  let net = Flit.create arch in
  let s = Engine.summary net in
  Alcotest.(check int) "no packets" 0 s.Stats.packets;
  Alcotest.(check bool) "idle immediately" true (Flit.run_until_idle net = `Idle)

let test_traffic_rates () =
  let acg = Noc_aes.Distributed.acg () in
  let flows = Traffic.flows_of_acg ~rate_scale:0.1 acg in
  Alcotest.(check int) "one flow per edge" (Acg.num_flows acg) (List.length flows);
  List.iter
    (fun f -> Alcotest.(check bool) "rate bounded" true (f.Traffic.rate <= 0.1 +. 1e-9))
    flows;
  Alcotest.(check bool) "offered load positive" true (Traffic.offered_load flows > 0.)

let test_traffic_run_delivers () =
  let acg = Noc_aes.Distributed.acg () in
  let arch = Syn.mesh ~rows:4 ~cols:4 acg in
  let net = coarse arch in
  let rng = Prng.create ~seed:7 in
  let flows = Traffic.flows_of_acg ~rate_scale:0.02 acg in
  Alcotest.(check bool) "drained" true (Traffic.run ~rng ~net ~flows ~cycles:1000 () = Engine.Idle);
  Alcotest.(check bool) "packets delivered" true (Flit.deliveries net <> []);
  Alcotest.(check int) "none stuck" 0 (Flit.pending net)

(* -------------------------------------------------------------------- *)
(* Routing policies (stochastic, the paper's Sec. 6)                     *)

let diag_mesh () =
  (* a 2x2 mesh with one corner-to-corner flow: two minimal paths *)
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.1 (D.of_edges [ (1, 4) ]) in
  (acg, Syn.mesh ~rows:2 ~cols:2 acg)

let routes_taken net =
  List.map (fun d -> Array.to_list d.Flit.packet.Noc_sim.Packet.route) (Flit.deliveries net)

let test_fixed_route_taken () =
  let _, arch = diag_mesh () in
  let net = coarse arch in
  let _ = Flit.inject net ~src:1 ~dst:4 in
  drain net;
  (* XY: column first -> 1, 2, 4 *)
  Alcotest.(check (list (list int))) "planned path" [ [ 1; 2; 4 ] ] (routes_taken net)

let test_oblivious_one_path_per_packet () =
  (* every flit of a packet follows the path it drew: a packet's flits all
     cross the same links, so per-link flit counts are multiples of the
     packet size *)
  let _, arch = diag_mesh () in
  let net = coarse ~policy:(Flit.Oblivious (Prng.create ~seed:5)) arch in
  for _ = 1 to 6 do
    ignore (Flit.inject ~size_flits:3 net ~src:1 ~dst:4)
  done;
  drain net;
  D.Edge_map.iter
    (fun (u, v) n -> Alcotest.(check int) (Printf.sprintf "link %d-%d" u v) 0 (n mod 3))
    (Flit.link_flits net);
  Alcotest.(check int) "6 packets x 3 flits x 2 hops" 36 (Flit.flit_hops net)

let test_oblivious_spreads_load () =
  (* packets of one corner-to-corner flow draw both minimal paths *)
  let _, arch = diag_mesh () in
  let net = coarse ~policy:(Flit.Oblivious (Prng.create ~seed:7)) arch in
  for _ = 1 to 8 do
    ignore (Flit.inject ~size_flits:4 net ~src:1 ~dst:4)
  done;
  drain net;
  let middles = List.sort_uniq compare (List.map (fun p -> List.nth p 1) (routes_taken net)) in
  Alcotest.(check (list int)) "both middles used" [ 2; 3 ] middles

let test_oblivious_faster_under_contention () =
  (* on byte-serial links a flit holds a link for 4 cycles while the NI
     injects one a cycle, so a burst on one flow is link-bound: spreading
     it over both minimal paths drains it sooner than fixed XY *)
  let _, arch = diag_mesh () in
  let run policy =
    let net = Flit.create ~policy arch in
    for _ = 1 to 8 do
      ignore (Flit.inject ~size_flits:4 net ~src:1 ~dst:4)
    done;
    drain net;
    Flit.now net
  in
  Alcotest.(check bool) "oblivious drains faster than fixed" true
    (run (Flit.Oblivious (Prng.create ~seed:7)) < run Flit.Fixed)

let test_oblivious_deterministic_and_minimal () =
  let _, arch = diag_mesh () in
  let run seed =
    let net = coarse ~policy:(Flit.Oblivious (Prng.create ~seed)) arch in
    for _ = 1 to 6 do
      ignore (Flit.inject net ~src:1 ~dst:4)
    done;
    drain net;
    routes_taken net
  in
  let a = run 3 and b = run 3 in
  Alcotest.(check bool) "same seed same paths" true (a = b);
  List.iter (fun p -> Alcotest.(check int) "minimal" 3 (List.length p)) a

let test_oblivious_on_custom_topology () =
  (* oblivious routing also works on a synthesized architecture, given a
     lane per hop of its longest minimal path *)
  let acg = Noc_aes.Distributed.acg () in
  let d, _ =
    Noc_core.Branch_bound.decompose ~library:(Noc_primitives.Library.default ()) acg
  in
  let arch = Syn.custom acg d in
  let num_vcs = Option.get (Noc_graph.Traversal.diameter arch.Syn.topology) in
  let net =
    Flit.create
      ~config:{ (Engine.config Engine.Coarse) with num_vcs }
      ~policy:(Flit.Oblivious (Prng.create ~seed:5))
      arch
  in
  let flows = Traffic.flows_of_acg ~rate_scale:0.05 acg in
  let rng = Prng.create ~seed:5 in
  Alcotest.(check bool) "drains" true (Traffic.run ~rng ~net ~flows ~cycles:300 () = Engine.Idle);
  Alcotest.(check bool) "delivers" true (Flit.deliveries net <> []);
  Alcotest.(check bool) "conservation" true (Flit.conservation_ok net)

(* -------------------------------------------------------------------- *)
(* Load sweeps                                                           *)

module Sweep = Noc_sim.Sweep

let test_latency_vs_load () =
  (* the 4x4 transpose pattern: node (r, c) sends to node (c, r) *)
  let id r c = (r * 4) + c + 1 in
  let rows = [ 0; 1; 2; 3 ] in
  let flows =
    List.concat_map
      (fun r -> List.filter_map (fun c -> if r <> c then Some (id r c, id c r) else None) rows)
      rows
  in
  let acg = Acg.uniform ~volume:8 ~bandwidth:0.1 (D.of_edges flows) in
  let arch = Syn.mesh ~rows:4 ~cols:4 acg in
  let rng = Prng.create ~seed:13 in
  let points =
    Sweep.latency_vs_load ~rng ~arch ~acg ~cycles:400 ~rates:[ 0.01; 0.05; 0.3 ] ()
  in
  Alcotest.(check int) "three points" 3 (List.length points);
  let lats = List.map (fun p -> p.Sweep.avg_latency) points in
  (* latency grows with offered load *)
  Alcotest.(check bool) "monotone-ish" true
    (List.nth lats 0 <= List.nth lats 2);
  List.iter
    (fun p -> Alcotest.(check bool) "delivered some" true (p.Sweep.delivered > 0))
    points;
  (* series view matches points *)
  Alcotest.(check int) "series length" 3 (List.length (Sweep.to_series points))

let test_saturation_detection () =
  let mk rate lat =
    {
      Sweep.rate;
      offered = rate;
      delivered = 10;
      avg_latency = lat;
      throughput = 0.1;
      drained = true;
    }
  in
  Alcotest.(check (option (float 1e-9))) "knee found" (Some 0.3)
    (Sweep.saturation_rate [ mk 0.1 5.0; mk 0.2 8.0; mk 0.3 25.0 ]);
  Alcotest.(check (option (float 1e-9))) "no knee" None
    (Sweep.saturation_rate [ mk 0.1 5.0; mk 0.2 6.0 ]);
  Alcotest.(check (option (float 1e-9))) "empty" None (Sweep.saturation_rate [])

let test_saturation_skips_zero_delivery_baseline () =
  (* Regression: a leading point that delivered nothing has avg_latency = 0.
     The old code took it as the baseline, treated base as 1.0 and then
     declared the first real point (latency 5 > 4) saturated.  The baseline
     must instead come from the first point that actually delivered. *)
  let mk ?(delivered = 10) rate lat =
    { Sweep.rate; offered = rate; delivered; avg_latency = lat; throughput = 0.1; drained = true }
  in
  let pts =
    [ mk ~delivered:0 0.05 0.0; mk 0.1 5.0; mk 0.2 8.0; mk 0.3 30.0 ]
  in
  Alcotest.(check (option (float 1e-9)))
    "knee at the real blow-up, not the first delivering point" (Some 0.3)
    (Sweep.saturation_rate pts);
  (* zero-delivery points never count as the knee themselves *)
  let stalled = [ mk 0.1 5.0; mk ~delivered:0 0.2 0.0; mk 0.3 30.0 ] in
  Alcotest.(check (option (float 1e-9)))
    "stalled mid-point skipped" (Some 0.3)
    (Sweep.saturation_rate stalled);
  (* if nothing was ever delivered there is no baseline and no knee *)
  Alcotest.(check (option (float 1e-9)))
    "all-stalled sweep has no knee" None
    (Sweep.saturation_rate [ mk ~delivered:0 0.1 0.0; mk ~delivered:0 0.2 0.0 ])

(* -------------------------------------------------------------------- *)
(* wormhole switching: the flit engine and its virtual-channel lanes     *)

(* the Coarse preset: one 8-bit flit per link cycle *)
let flit_config ?(fifo_depth = 4) num_vcs =
  { (Engine.config Engine.Coarse) with Flit.fifo_depth; num_vcs }

let line_arch_flow h =
  (* a straight 1 x (h+1) mesh carrying the single flow 1 -> h+1 *)
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.1 (D.of_edges [ (1, h + 1) ]) in
  Syn.mesh ~rows:1 ~cols:(h + 1) acg

let drain_flit net =
  match Flit.run_until_idle net with
  | `Idle -> ()
  | `Deadlock -> Alcotest.fail "unexpected deadlock"
  | `Limit n -> Alcotest.failf "cycle limit with %d pending" n

(* the wrap-around 4-ring: every flow goes [hops] links clockwise from
   its source, so the flows' channel dependencies form a cycle *)
let ring_arch ~hops =
  let routes =
    List.init 4 (fun i ->
        let path = List.init (hops + 1) (fun k -> ((i + k) mod 4) + 1) in
        ((i + 1, List.nth path hops), path))
  in
  let arch =
    Syn.make ~topology:(G.bidirectional_ring 4)
      ~routes:(D.Edge_map.of_seq (List.to_seq routes))
  in
  (arch, List.map fst routes)

let ring_verdict ~hops ~fifo_depth ~size_flits num_vcs =
  let arch, flows = ring_arch ~hops in
  let net = Flit.create ~config:(flit_config ~fifo_depth num_vcs) arch in
  List.iter (fun (src, dst) -> ignore (Flit.inject ~size_flits net ~src ~dst)) flows;
  let verdict = Flit.run_until_idle net in
  Alcotest.(check bool) "conservation" true (Flit.conservation_ok net);
  (verdict, net)

let test_two_hop_ring_split_by_voqs () =
  (* the 2-hop ring has a cyclic CDG, yet one lane drains it: a transit
     queue is keyed by its (input, output) pair and waits only on an
     ejection queue, so the channel cycle never closes into a queue cycle *)
  let arch, _ = ring_arch ~hops:2 in
  Alcotest.(check bool) "CDG has a cycle" true (not (Noc_core.Deadlock.is_deadlock_free arch));
  List.iter
    (fun (fifo_depth, size_flits) ->
      match ring_verdict ~hops:2 ~fifo_depth ~size_flits 1 with
      | `Idle, _ -> ()
      | _ -> Alcotest.failf "depth %d, %d flits: one lane must drain" fifo_depth size_flits)
    [ (1, 4); (1, 16); (2, 4); (2, 16); (4, 4); (4, 16) ]

let test_undrained_sweep_point () =
  (* one lane jams the 3-hop ring under load: the sweep must say so, and an
     undrained point is the knee however low the latency of the few
     packets that got out reads (0.05: 42 delivered at 59.9 cycles, 0.2: 4
     at 44.0, both under 4x the 25.5 of the drained 0.01 point) *)
  let arch, flows = ring_arch ~hops:3 in
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.1 (D.of_edges flows) in
  let points =
    Sweep.latency_vs_load ~engine:Noc_sim.Engine.Flit ~rng:(Prng.create ~seed:1) ~arch ~acg
      ~cycles:500 ~rates:[ 0.01; 0.05; 0.2 ] ()
  in
  Alcotest.(check (list bool)) "drained per rate" [ true; false; false ]
    (List.map (fun p -> p.Sweep.drained) points);
  Alcotest.(check (option (float 1e-9))) "knee at the first undrained rate" (Some 0.05)
    (Sweep.saturation_rate points)

let test_wormhole_beats_store_and_forward () =
  (* the whole point of wormhole switching: a multi-flit packet streams
     through the routers, while store-and-forward pays the serialization
     at every hop: [rd * (h + 1) + n * h] cycles with one flit per link
     cycle *)
  let h = 4 and n = 6 in
  let arch = line_arch_flow h in
  let whn =
    let net = Flit.create ~config:(flit_config 1) arch in
    let _ = Flit.inject ~size_flits:n net ~src:1 ~dst:(h + 1) in
    drain_flit net;
    (List.hd (Flit.deliveries net)).Flit.delivered_at
  in
  let rd = (flit_config 1).Flit.router_delay in
  let saf = (rd * (h + 1)) + (n * h) in
  Alcotest.(check bool) "wormhole pipelines" true (whn < saf)

let test_wormhole_link_sharing () =
  (* two packets over the same single link: the link carries one flit per
     cycle, so together they take at least 2n cycles *)
  let net = Flit.create ~config:(flit_config 1) (line_arch_flow 1) in
  let _ = Flit.inject ~size_flits:4 net ~src:1 ~dst:2 in
  let _ = Flit.inject ~size_flits:4 net ~src:1 ~dst:2 in
  drain_flit net;
  let times = List.map (fun d -> d.Flit.delivered_at) (Flit.deliveries net) in
  Alcotest.(check int) "both delivered" 2 (List.length times);
  Alcotest.(check bool) "link is serialized" true (List.fold_left max 0 times >= 8)

let test_wormhole_flit_hops () =
  let h = 3 and n = 4 in
  let net = Flit.create ~config:(flit_config 2) (line_arch_flow h) in
  let _ = Flit.inject ~size_flits:n net ~src:1 ~dst:(h + 1) in
  drain_flit net;
  Alcotest.(check int) "every flit crosses every link" (h * n) (Flit.flit_hops net)

(* depth 1 and 2 with 4-flit packets, and depth 4 once packets outgrow
   the buffers of a route *)
let ring_cases = [ (1, 4); (2, 4); (4, 16) ]

let test_wormhole_ring_deadlocks_with_one_vc () =
  let arch, _ = ring_arch ~hops:3 in
  (* static analysis predicts the deadlock risk... *)
  let report = Noc_core.Deadlock.analyze arch in
  Alcotest.(check bool) "CDG has a cycle" true (report.Noc_core.Deadlock.cdg_cycle <> None);
  Alcotest.(check int) "2 VCs prescribed" 2 report.Noc_core.Deadlock.vcs_needed;
  (* ...and the flit engine realizes it with a single lane *)
  List.iter
    (fun (fifo_depth, size_flits) ->
      match ring_verdict ~hops:3 ~fifo_depth ~size_flits 1 with
      | `Deadlock, net ->
          Alcotest.(check bool) "packets stuck" true (Flit.pending net > 0);
          Alcotest.(check bool) "under-provisioned lanes flagged" true (Flit.vc_truncated net)
      | `Idle, _ -> Alcotest.failf "depth %d: expected a deadlock with 1 lane" fifo_depth
      | `Limit _, _ -> Alcotest.fail "expected deadlock detection, not a timeout")
    ring_cases

let test_wormhole_ring_drains_with_two_vcs () =
  List.iter
    (fun (fifo_depth, size_flits) ->
      match ring_verdict ~hops:3 ~fifo_depth ~size_flits 2 with
      | `Idle, net ->
          Alcotest.(check int) "all delivered" 4 (List.length (Flit.deliveries net));
          Alcotest.(check int) "summary agrees" 4 (Engine.summary net).Stats.packets;
          Alcotest.(check bool) "lanes suffice" false (Flit.vc_truncated net)
      | _ -> Alcotest.failf "depth %d: 2 lanes must break the cycle" fifo_depth)
    ring_cases

let test_wormhole_bad_args () =
  let arch = line_arch_flow 1 in
  Alcotest.check_raises "bad vcs" (Invalid_argument "Flitsim.create: num_vcs must be >= 1")
    (fun () -> ignore (Flit.create ~config:(flit_config 0) arch));
  let net = Flit.create arch in
  Alcotest.check_raises "no route" (Invalid_argument "Flitsim.inject: no route 2 -> 1")
    (fun () -> ignore (Flit.inject net ~src:2 ~dst:1))

let qcheck_wormhole_always_terminates_acyclic =
  QCheck.Test.make ~name:"wormhole always drains on acyclic-CDG meshes" ~count:20
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, flits) ->
      let acg = Noc_aes.Distributed.acg () in
      let arch = Syn.mesh ~rows:4 ~cols:4 acg in
      let net = Flit.create ~config:(flit_config ~fifo_depth:1 1) arch in
      let rng = Prng.create ~seed:(seed + 4000) in
      let g = Noc_core.Acg.graph acg in
      let edges = D.edges g in
      for _ = 1 to 20 do
        let u, v = List.nth edges (Prng.int rng (List.length edges)) in
        ignore (Flit.inject ~size_flits:flits net ~src:u ~dst:v)
      done;
      match Flit.run_until_idle net with `Idle -> true | `Deadlock | `Limit _ -> false)

(* Property: in an uncontended network, latency equals the documented
   formula 1 + rd + h*(rd + 1) + (flits - 1) of the one-flit-per-cycle
   preset, given the credit round trip's buffer depth rd + 2. *)
let qcheck_uncontended_latency =
  QCheck.Test.make ~name:"uncontended latency matches the pipeline formula" ~count:30
    QCheck.(pair (int_range 1 3) (int_range 1 4))
    (fun (rd, flits) ->
      let acg = Acg.uniform ~volume:1 ~bandwidth:0.1 (D.of_edges [ (1, 4) ]) in
      let arch = Syn.mesh ~rows:1 ~cols:4 acg in
      let config =
        { (Engine.config Engine.Coarse) with router_delay = rd; fifo_depth = rd + 2 }
      in
      let net = Flit.create ~config arch in
      let _ = Flit.inject ~size_flits:flits net ~src:1 ~dst:4 in
      match Flit.run_until_idle net with
      | `Deadlock | `Limit _ -> false
      | `Idle -> (
          match Flit.deliveries net with
          | [ { Flit.delivered_at; _ } ] ->
              let h = 3 in
              delivered_at = 1 + rd + (h * (rd + 1)) + (flits - 1)
          | _ -> false))

let suite =
  ( "sim",
    [
      Alcotest.test_case "single packet latency" `Quick test_single_packet_latency;
      Alcotest.test_case "multi hop latency" `Quick test_multi_hop_latency;
      Alcotest.test_case "serialization delay" `Quick test_serialization_delay;
      Alcotest.test_case "contention serializes" `Quick test_contention_serializes;
      Alcotest.test_case "fifo channel order" `Quick test_fifo_order_on_channel;
      Alcotest.test_case "inject without route" `Quick test_inject_no_route;
      Alcotest.test_case "bad config rejected" `Quick test_bad_config;
      Alcotest.test_case "drain deliveries" `Quick test_drain_deliveries;
      Alcotest.test_case "activity counters" `Quick test_activity_counters;
      Alcotest.test_case "payload and tag carried" `Quick test_payload_carried;
      Alcotest.test_case "simulation deterministic" `Quick test_determinism;
      Alcotest.test_case "empty summary" `Quick test_summary_empty;
      Alcotest.test_case "summary fields" `Quick test_summary_fields;
      Alcotest.test_case "energy accounting" `Quick test_energy_accounting;
      Alcotest.test_case "buffer occupancy counted" `Quick test_buffer_occupancy_counted;
      Alcotest.test_case "traffic uniform without bandwidth" `Quick
        test_traffic_uniform_when_no_bandwidth;
      Alcotest.test_case "wormhole empty summary" `Quick test_wormhole_empty_summary;
      Alcotest.test_case "traffic rates" `Quick test_traffic_rates;
      Alcotest.test_case "traffic run delivers" `Quick test_traffic_run_delivers;
      Alcotest.test_case "fixed: route taken = planned" `Quick test_fixed_route_taken;
      Alcotest.test_case "oblivious: one drawn path per packet" `Quick
        test_oblivious_one_path_per_packet;
      Alcotest.test_case "oblivious: spreads load" `Quick test_oblivious_spreads_load;
      Alcotest.test_case "oblivious: faster under contention" `Quick
        test_oblivious_faster_under_contention;
      Alcotest.test_case "oblivious: deterministic + minimal" `Quick
        test_oblivious_deterministic_and_minimal;
      Alcotest.test_case "oblivious on custom topology" `Quick test_oblivious_on_custom_topology;
      Alcotest.test_case "latency vs load sweep" `Quick test_latency_vs_load;
      Alcotest.test_case "saturation detection" `Quick test_saturation_detection;
      Alcotest.test_case "saturation: zero-delivery baseline" `Quick
        test_saturation_skips_zero_delivery_baseline;
      Alcotest.test_case "flit: VOQs split the 2-hop ring cycle" `Quick
        test_two_hop_ring_split_by_voqs;
      Alcotest.test_case "wormhole beats store-and-forward" `Quick
        test_wormhole_beats_store_and_forward;
      Alcotest.test_case "wormhole: link time-sharing" `Quick test_wormhole_link_sharing;
      Alcotest.test_case "wormhole: flit-hop accounting" `Quick test_wormhole_flit_hops;
      Alcotest.test_case "wormhole: ring deadlocks with 1 VC" `Quick
        test_wormhole_ring_deadlocks_with_one_vc;
      Alcotest.test_case "wormhole: 2 VCs break the deadlock" `Quick
        test_wormhole_ring_drains_with_two_vcs;
      Alcotest.test_case "wormhole: argument validation" `Quick test_wormhole_bad_args;
      QCheck_alcotest.to_alcotest qcheck_wormhole_always_terminates_acyclic;
      QCheck_alcotest.to_alcotest qcheck_uncontended_latency;
      Alcotest.test_case "sweep: an undrained point is the knee" `Quick test_undrained_sweep_point;
    ] )
