(* Tests for the cycle-accurate flit engine stack (lib/sim: Credit,
   Router, Flitsim, Engine), including its wormhole switching over
   virtual-channel lanes: zero-hop packets, large bursts, lane
   provisioning against the static deadlock analysis.

   The differential qcheck suites cross-validate the two fidelity levels
   on the same random ACGs the oracle harness uses, and on random cyclic
   ring routings where only the lanes prevent deadlock: every drained run
   must deliver exactly the injected packet set, the flit engine's
   conservation invariant must hold after every cycle, and deeper VOQs
   must never slow a burst down. *)

module D = Noc_graph.Digraph
module G = Noc_graph.Generators
module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Syn = Noc_core.Synthesis
module Dead = Noc_core.Deadlock
module L = Noc_primitives.Library
module Prng = Noc_util.Prng
module Fuzz = Noc_oracle.Fuzz
module Credit = Noc_sim.Credit
module Flit = Noc_sim.Flitsim
module Engine = Noc_sim.Engine
module Packet = Noc_sim.Packet
module Edge_map = D.Edge_map

let lib = L.default

(* a line 0 - 1 - ... - h with the single flow 0 -> h routed along it *)
let line_arch h =
  let topology = ref (D.add_vertex D.empty 0) in
  for v = 1 to h do
    topology := D.add_edge !topology (v - 1) v
  done;
  let route = List.init (h + 1) Fun.id in
  Syn.make ~topology:!topology ~routes:(Edge_map.singleton (0, h) route) ()

(* the documented uncontended flit latency (flitsim.mli), valid when
   [fifo_depth >= 1 + ceil ((router_delay + 1) / phits_per_flit)] *)
let expected_latency ~h ~n ~p ~rd =
  if h = 0 then 1 + rd + (n - 1) else 1 + rd + (h * (rd + p)) + ((n - 1) * p)

(* ---------------------------------------------------------------- *)
(* Credit counters                                                  *)

let test_credit_basics () =
  let c = Credit.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Credit.capacity c);
  Alcotest.(check bool) "take 1" true (Credit.take c);
  Alcotest.(check bool) "take 2" true (Credit.take c);
  Alcotest.(check bool) "exhausted" false (Credit.take c);
  Alcotest.(check int) "none left" 0 (Credit.available c);
  Credit.put c;
  Alcotest.(check bool) "replenished" true (Credit.take c);
  Alcotest.(check bool) "balanced at 2 outstanding" true (Credit.balanced c ~outstanding:2);
  Alcotest.check_raises "capacity >= 1 enforced"
    (Invalid_argument "Credit.create: capacity must be >= 1") (fun () ->
      ignore (Credit.create ~capacity:0));
  Credit.put c;
  Credit.put c;
  Alcotest.check_raises "over-return rejected"
    (Invalid_argument "Credit.put: counter already full") (fun () -> Credit.put c)

(* ---------------------------------------------------------------- *)
(* Flit engine: pinned uncontended latencies                        *)

let single_packet_latency ~cfg ~h ~n =
  let f = Flit.create ~config:cfg (line_arch h) in
  ignore (Flit.inject ~size_flits:n f ~src:0 ~dst:h);
  (match Flit.run_until_idle f with
  | `Idle -> ()
  | `Deadlock -> Alcotest.fail "deadlock on an uncontended line"
  | `Limit _ -> Alcotest.fail "limit on an uncontended line");
  Alcotest.(check bool) "conservation" true (Flit.conservation_ok f);
  match Flit.deliveries f with
  | [ d ] -> d.Flit.delivered_at - d.Flit.packet.Packet.injected_at
  | ds -> Alcotest.failf "expected 1 delivery, got %d" (List.length ds)

let test_flit_latency_formula () =
  (* all combos satisfy the depth condition in flitsim.mli, so the
     closed-form latency is exact, not just an upper bound *)
  let cases =
    [
      (* h, n, config *)
      (3, 5, Flit.default_config);
      (1, 1, Flit.default_config);
      (4, 8, { Flit.default_config with fifo_depth = 3; flit_bits = 8; phit_bits = 8 });
      (4, 8, { Flit.default_config with fifo_depth = 5; flit_bits = 8; phit_bits = 8; router_delay = 3 });
      (2, 3, { Flit.default_config with phit_bits = 16; router_delay = 2; num_vcs = 2 });
    ]
  in
  List.iter
    (fun (h, n, cfg) ->
      let p = Flit.phits_per_flit cfg in
      Alcotest.(check int)
        (Printf.sprintf "h=%d n=%d p=%d rd=%d" h n p cfg.Flit.router_delay)
        (expected_latency ~h ~n ~p ~rd:cfg.Flit.router_delay)
        (single_packet_latency ~cfg ~h ~n))
    cases

let test_flit_zero_hop () =
  (* src = dst: the packet still serializes through the local (NI ->
     ejection) VOQ, one flit per cycle, without touching any link *)
  let cfg = Flit.default_config in
  Alcotest.(check int) "zero-hop latency"
    (expected_latency ~h:0 ~n:5 ~p:(Flit.phits_per_flit cfg) ~rd:cfg.Flit.router_delay)
    (single_packet_latency ~cfg ~h:0 ~n:5);
  let f = Flit.create (line_arch 0) in
  ignore (Flit.inject ~size_flits:4 f ~src:0 ~dst:0);
  ignore (Flit.run_until_idle f);
  Alcotest.(check int) "no link traversals" 0 (Flit.flit_hops f)

let test_flit_accounting () =
  let f = Flit.create (line_arch 3) in
  ignore (Flit.inject ~size_flits:4 f ~src:0 ~dst:3);
  ignore (Flit.inject ~size_flits:2 f ~src:0 ~dst:3);
  Alcotest.(check int) "injected flits" 6 (Flit.injected_flits f);
  (match Flit.run_until_idle f with
  | `Idle -> ()
  | _ -> Alcotest.fail "line burst must drain");
  Alcotest.(check int) "delivered flits" 6 (Flit.delivered_flits f);
  Alcotest.(check int) "nothing in flight" 0 (Flit.in_flight_flits f);
  Alcotest.(check int) "flit hops = flits x hops" 18 (Flit.flit_hops f);
  Alcotest.(check bool) "buffers were occupied" true (Flit.buffer_flit_cycles f > 0)

(* ---------------------------------------------------------------- *)
(* Engine dispatch                                                  *)

let test_engine_dispatch () =
  List.iter
    (fun k ->
      Alcotest.(check (option reject))
        (Engine.kind_name k ^ " name round-trips")
        None
        (if Engine.kind_of_name (Engine.kind_name k) = Some k then None else Some ()))
    Engine.all_kinds;
  Alcotest.(check (option reject)) "unknown engine name" None (Engine.kind_of_name "exact");
  let arch = line_arch 2 in
  List.iter
    (fun k ->
      let net = Engine.create k arch in
      Alcotest.(check string) "name" (Engine.kind_name k) (Engine.name net);
      ignore (Engine.inject ~size_flits:2 net ~src:0 ~dst:2);
      match Engine.run_until_idle net with
      | Engine.Idle ->
          Alcotest.(check int)
            (Engine.kind_name k ^ " delivers")
            1
            (List.length (Engine.deliveries net))
      | v -> Alcotest.failf "%s: %s" (Engine.kind_name k) (Engine.verdict_name v))
    Engine.all_kinds

(* ---------------------------------------------------------------- *)
(* wormhole switching over virtual-channel lanes                    *)

let lanes num_vcs = { Flit.default_config with Flit.num_vcs }

let test_wormhole_zero_hop () =
  (* a src = dst packet on a multi-lane engine still drains the whole
     packet through the single-lane local port, one flit per cycle *)
  let f = Flit.create ~config:(lanes 2) (line_arch 0) in
  ignore (Flit.inject ~size_flits:3 f ~src:0 ~dst:0);
  (match Flit.run_until_idle f with
  | `Idle -> ()
  | `Deadlock -> Alcotest.fail "zero-hop packet deadlocked"
  | `Limit _ -> Alcotest.fail "zero-hop packet never drained");
  (match Flit.deliveries f with
  | [ d ] ->
      Alcotest.(check int) "latency = 1 + rd + (n - 1)"
        (expected_latency ~h:0 ~n:3 ~p:4 ~rd:1)
        (d.Flit.delivered_at - d.Flit.packet.Packet.injected_at)
  | ds -> Alcotest.failf "expected 1 delivery, got %d" (List.length ds));
  Alcotest.(check int) "no link traversals" 0 (Flit.flit_hops f)

let test_wormhole_mass_injection () =
  (* a burst of hundreds of packets must drain completely and in bounded
     time, on one lane and on two *)
  List.iter
    (fun num_vcs ->
      let f = Flit.create ~config:(lanes num_vcs) (line_arch 4) in
      for _ = 1 to 300 do
        ignore (Flit.inject ~size_flits:2 f ~src:0 ~dst:4)
      done;
      Alcotest.(check int) "pending" 300 (Flit.pending f);
      (match Flit.run_until_idle ~max_cycles:10_000 f with
      | `Idle -> ()
      | _ -> Alcotest.failf "mass burst must drain at %d lanes" num_vcs);
      Alcotest.(check int) "all delivered" 300 (List.length (Flit.deliveries f)))
    [ 1; 2 ]

let test_wormhole_vc_truncation () =
  (* the route 4 -> 1 -> 2 on a 4-ring (vertices 1..4) inverts the channel
     order at (4,1) -> (1,2), so the increasing-order rule moves it to VC 1
     on its second link.  Alone, its channel dependency graph is acyclic,
     so one lane is enough and nothing is truncated: truncation is judged
     against the analysis' vcs_needed, not per route *)
  let single =
    Syn.make ~topology:(G.loop 4) ~routes:(Edge_map.singleton (4, 2) [ 4; 1; 2 ]) ()
  in
  Alcotest.(check (option int))
    "second hop on VC 1" (Some 1)
    (Dead.vc_of_hop single ~src:4 ~dst:2 ~hop:1);
  Alcotest.(check (array int))
    "capped at one lane" [| 0; 0 |]
    (Dead.route_vcs ~num_vcs:1 [ 4; 1; 2 ]);
  let one = Flit.create single in
  Alcotest.(check bool) "acyclic CDG: one lane is not truncated" false (Flit.vc_truncated one);
  ignore (Flit.inject ~size_flits:2 one ~src:4 ~dst:2);
  (match Flit.run_until_idle one with `Idle -> () | _ -> Alcotest.fail "single route must drain");
  (* every 3-hop clockwise route closes the cycle: 2 lanes are prescribed,
     and one lane is flagged as truncated *)
  let ring =
    Syn.make ~topology:(G.loop 4)
      ~routes:
        (Edge_map.of_seq
           (List.to_seq
              [
                ((1, 4), [ 1; 2; 3; 4 ]);
                ((2, 1), [ 2; 3; 4; 1 ]);
                ((3, 2), [ 3; 4; 1; 2 ]);
                ((4, 3), [ 4; 1; 2; 3 ]);
              ]))
      ()
  in
  Alcotest.(check int) "2 lanes prescribed" 2 (Dead.analyze ring).Dead.vcs_needed;
  let starved = Engine.create Engine.Flit ring in
  Alcotest.(check bool) "truncation flagged" true (Engine.vc_truncated starved);
  let ok = Engine.create ~flit_config:(lanes 2) Engine.Flit ring in
  Alcotest.(check bool) "no truncation at num_vcs = 2" false (Engine.vc_truncated ok);
  Alcotest.(check bool) "coarse never truncates" false
    (Engine.vc_truncated (Engine.create Engine.Coarse ring))

(* ---------------------------------------------------------------- *)
(* Differential qcheck suites (>= 200 cases each)                    *)

(* decompose + glue a random fuzz ACG, burst one packet per flow *)
let random_case seed =
  let acg = Fuzz.gen_acg ~rng:(Prng.create ~seed) in
  let d, _ = Bb.decompose ~library:(lib ()) acg in
  (acg, Syn.custom acg d)

(* one packet per flow; the flit engine gets the prescribed lanes unless
   [num_vcs] says otherwise *)
let burst ?(fifo_depth = 4) ?num_vcs ~size_flits kind flows arch =
  let num_vcs =
    match num_vcs with Some n -> n | None -> (Dead.analyze arch).Dead.vcs_needed
  in
  let flit_config = { Flit.default_config with fifo_depth; num_vcs } in
  let net = Engine.create ~flit_config kind arch in
  List.iter (fun (src, dst) -> ignore (Engine.inject ~size_flits net ~src ~dst)) flows;
  let verdict = Engine.run_until_idle net in
  (net, verdict)

let delivery_set net =
  Engine.deliveries net
  |> List.map (fun (d : Packet.delivery) ->
         (d.packet.Packet.id, d.packet.Packet.src, d.packet.Packet.dst))
  |> List.sort compare

let conserved net =
  match Engine.flitsim net with Some f -> Flit.conservation_ok f | None -> true

let qcheck_engines_agree =
  QCheck.Test.make ~name:"flit = coarse on fuzz ACGs (deliveries)" ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let seed = 80_000 + k in
      let acg, arch = random_case seed in
      let flows = D.edges (Acg.graph acg) in
      let coarse, cv = burst ~size_flits:2 Engine.Coarse flows arch in
      let flit, fv = burst ~size_flits:2 Engine.Flit flows arch in
      if cv <> Engine.Idle then
        QCheck.Test.fail_reportf "seed %d: coarse verdict %s" seed (Engine.verdict_name cv);
      if fv <> Engine.Idle then
        QCheck.Test.fail_reportf "seed %d: flit verdict %s" seed (Engine.verdict_name fv);
      if delivery_set flit <> delivery_set coarse then
        QCheck.Test.fail_reportf "seed %d: flit/coarse delivery sets differ" seed;
      if not (conserved flit) then
        QCheck.Test.fail_reportf "seed %d: flit conservation broken" seed;
      true)

(* A random routing on an [n]-node ring (4 <= n <= 8): distinct flows,
   each going 1 .. n-1 links clockwise, so most cases close a channel
   cycle that only the lanes break. *)
let gen_ring_case =
  QCheck.Gen.(
    int_range 4 8 >>= fun n ->
    list_size (int_range 2 (2 * n)) (pair (int_range 1 n) (int_range 1 (n - 1))) >>= fun flows ->
    oneofl [ 1; 2; 4 ] >>= fun fifo_depth ->
    int_range 1 16 >|= fun size_flits -> (n, flows, fifo_depth, size_flits))

let ring_routing (n, flows, _, _) =
  let routes =
    List.fold_left
      (fun acc (src, hops) ->
        let path = List.init (hops + 1) (fun i -> ((src - 1 + i) mod n) + 1) in
        Edge_map.add (src, List.nth path hops) path acc)
      Edge_map.empty flows
  in
  (Syn.make ~topology:(G.bidirectional_ring n) ~routes (), List.map fst (Edge_map.bindings routes))

let qcheck_lanes_drain_cyclic_rings =
  QCheck.Test.make ~name:"prescribed lanes drain random cyclic ring routings" ~count:400
    (QCheck.make
       ~print:(fun (n, flows, d, s) ->
         Printf.sprintf "n=%d depth=%d flits=%d flows=[%s]" n d s
           (String.concat "; " (List.map (fun (a, h) -> Printf.sprintf "%d+%d" a h) flows)))
       gen_ring_case)
    (fun ((_, _, fifo_depth, size_flits) as case) ->
      let arch, flows = ring_routing case in
      let coarse, _ = burst ~size_flits Engine.Coarse flows arch in
      let lanes, lv = burst ~fifo_depth ~size_flits Engine.Flit flows arch in
      if lv <> Engine.Idle then
        QCheck.Test.fail_reportf "prescribed lanes: verdict %s" (Engine.verdict_name lv);
      if List.length (Engine.deliveries lanes) <> List.length flows then
        QCheck.Test.fail_reportf "prescribed lanes: partial delivery";
      if delivery_set lanes <> delivery_set coarse then
        QCheck.Test.fail_reportf "flit/coarse delivery sets differ";
      if not (conserved lanes) then QCheck.Test.fail_reportf "conservation broken";
      (* one lane may deadlock, but only where the CDG is cyclic *)
      let one, v1 = burst ~fifo_depth ~num_vcs:1 ~size_flits Engine.Flit flows arch in
      if v1 = Engine.Deadlock && Dead.is_deadlock_free arch then
        QCheck.Test.fail_reportf "one lane deadlocked on an acyclic CDG";
      if v1 = Engine.Idle && delivery_set one <> delivery_set coarse then
        QCheck.Test.fail_reportf "one-lane delivery set differs";
      if not (conserved one) then QCheck.Test.fail_reportf "one-lane conservation broken";
      true)

let qcheck_conservation_every_cycle =
  QCheck.Test.make ~name:"flit conservation holds after every cycle" ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let seed = 90_000 + k in
      let acg, arch = random_case seed in
      let f = Flit.create arch in
      let flows = D.edges (Acg.graph acg) in
      (* stagger the injections so arrivals, credit returns and NI pushes
         overlap in as many phase combinations as possible *)
      List.iteri
        (fun i (src, dst) ->
          ignore (Flit.inject ~size_flits:(1 + (i mod 3)) f ~src ~dst);
          Flit.step f;
          if not (Flit.conservation_ok f) then
            QCheck.Test.fail_reportf "seed %d: conservation broken at cycle %d" seed
              (Flit.now f))
        flows;
      let budget = ref 5_000 in
      while Flit.pending f > 0 && !budget > 0 do
        decr budget;
        Flit.step f;
        if not (Flit.conservation_ok f) then
          QCheck.Test.fail_reportf "seed %d: conservation broken at cycle %d" seed
            (Flit.now f)
      done;
      (* cyclic-CDG cases may deadlock with flits parked in VOQs; the
         invariant must hold there too, which the loop above checked *)
      true)

let qcheck_deeper_fifos_monotone =
  QCheck.Test.make ~name:"deeper FIFOs never slow an uncontended burst" ~count:200
    QCheck.(int_range 0 800)
    (fun k ->
      let h = 1 + (k mod 5) and n = 1 + (k mod 4) and packets = 2 + (k mod 4) in
      let makespan depth =
        let cfg = { Flit.default_config with Flit.fifo_depth = depth } in
        let f = Flit.create ~config:cfg (line_arch h) in
        for _ = 1 to packets do
          ignore (Flit.inject ~size_flits:n f ~src:0 ~dst:h)
        done;
        match Flit.run_until_idle f with
        | `Idle -> Flit.now f
        | _ -> QCheck.Test.fail_reportf "line burst failed at depth %d" depth
      in
      let shallow = makespan 1 and deep = makespan 4 in
      if deep > shallow then
        QCheck.Test.fail_reportf "h=%d n=%d x%d: depth 4 takes %d > depth 1's %d" h n
          packets deep shallow;
      true)

let suite =
  ( "flit",
    [
      Alcotest.test_case "credit counters" `Quick test_credit_basics;
      Alcotest.test_case "flit: pinned latency formula" `Quick test_flit_latency_formula;
      Alcotest.test_case "flit: zero-hop serialization" `Quick test_flit_zero_hop;
      Alcotest.test_case "flit: accounting" `Quick test_flit_accounting;
      Alcotest.test_case "engine: dispatch" `Quick test_engine_dispatch;
      Alcotest.test_case "wormhole: zero-hop worm (regression)" `Quick test_wormhole_zero_hop;
      Alcotest.test_case "wormhole: 300-worm burst (regression)" `Quick
        test_wormhole_mass_injection;
      Alcotest.test_case "wormhole: VC-cap truncation (regression)" `Quick
        test_wormhole_vc_truncation;
      QCheck_alcotest.to_alcotest qcheck_engines_agree;
      QCheck_alcotest.to_alcotest qcheck_conservation_every_cycle;
      QCheck_alcotest.to_alcotest qcheck_deeper_fifos_monotone;
      QCheck_alcotest.to_alcotest qcheck_lanes_drain_cyclic_rings;
    ] )
