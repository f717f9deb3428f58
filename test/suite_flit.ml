(* Tests for the cycle-accurate flit engine stack (lib/sim: Credit,
   Router, Flitsim, Engine), including its wormhole switching over
   virtual-channel lanes: zero-hop packets, large bursts, lane
   provisioning against the static deadlock analysis.

   The differential qcheck suites cross-validate the two presets (one
   8-bit flit per link cycle, and 32-bit flits over byte-serial links) on
   the same random ACGs the oracle harness uses, and on random cyclic
   ring routings where only the lanes prevent deadlock: every drained run
   must deliver exactly the injected packet set, the flit engine's
   conservation invariant must hold after every cycle, its activity
   counters must add up once drained, and deeper VOQs must never slow a
   burst down.  A digest table pins the engine's exact behaviour on the
   corpus, so a rewrite of its hot path must be cycle-for-cycle
   identical. *)

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
  Syn.make ~topology:!topology ~routes:(Edge_map.singleton (0, h) route)

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
(* Engine presets                                                   *)

let test_engine_dispatch () =
  List.iter
    (fun k ->
      Alcotest.(check (option reject))
        (Engine.kind_name k ^ " name round-trips")
        None
        (if Engine.kind_of_name (Engine.kind_name k) = Some k then None else Some ()))
    Engine.all_kinds;
  Alcotest.(check (option reject)) "unknown engine name" None (Engine.kind_of_name "exact");
  Alcotest.(check bool) "Flit is the default config" true
    (Engine.config Engine.Flit = Flit.default_config);
  Alcotest.(check int) "Coarse: one flit per link cycle" 1
    (Flit.phits_per_flit (Engine.config Engine.Coarse));
  let arch = line_arch 2 in
  List.iter
    (fun k ->
      let net = Engine.create k arch in
      Alcotest.(check bool) "runs its preset" true (Flit.config net = Engine.config k);
      ignore (Engine.inject ~size_flits:2 net ~src:0 ~dst:2);
      match Engine.run_until_idle net with
      | Engine.Idle ->
          Alcotest.(check int)
            (Engine.kind_name k ^ " delivers")
            1
            (List.length (Flit.deliveries net))
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
    Syn.make ~topology:(G.loop 4) ~routes:(Edge_map.singleton (4, 2) [ 4; 1; 2 ])
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
  in
  Alcotest.(check int) "2 lanes prescribed" 2 (Dead.analyze ring).Dead.vcs_needed;
  List.iter
    (fun k ->
      let name = Engine.kind_name k in
      Alcotest.(check bool) (name ^ ": one lane is flagged") true
        (Flit.vc_truncated (Engine.create k ring));
      Alcotest.(check bool) (name ^ ": prescribed lanes are not") false
        (Flit.vc_truncated (Flit.create ~config:(Engine.prescribed k ring) ring)))
    Engine.all_kinds;
  let ok = Flit.create ~config:(lanes 2) ring in
  Alcotest.(check bool) "no truncation at num_vcs = 2" false (Flit.vc_truncated ok)

(* ---------------------------------------------------------------- *)
(* Differential qcheck suites (>= 200 cases each)                    *)

(* decompose + glue a random fuzz ACG, burst one packet per flow *)
let random_case seed =
  let acg = Fuzz.gen_acg ~rng:(Prng.create ~seed) in
  let d, _ = Bb.decompose ~library:(lib ()) acg in
  (acg, Syn.custom acg d)

(* one packet per flow on a preset; the engine gets the prescribed lanes
   unless [num_vcs] says otherwise *)
let burst ?(fifo_depth = 4) ?num_vcs ~size_flits kind flows arch =
  let num_vcs =
    match num_vcs with Some n -> n | None -> (Dead.analyze arch).Dead.vcs_needed
  in
  let net = Flit.create ~config:{ (Engine.config kind) with fifo_depth; num_vcs } arch in
  List.iter (fun (src, dst) -> ignore (Engine.inject ~size_flits net ~src ~dst)) flows;
  let verdict = Engine.run_until_idle net in
  (net, verdict)

let delivery_set net =
  Flit.deliveries net
  |> List.map (fun (d : Packet.delivery) ->
         (d.packet.Packet.id, d.packet.Packet.src, d.packet.Packet.dst))
  |> List.sort compare

let conserved = Flit.conservation_ok

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
      if not (conserved flit && conserved coarse) then
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
  (Syn.make ~topology:(G.bidirectional_ring n) ~routes, List.map fst (Edge_map.bindings routes))

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
      if List.length (Flit.deliveries lanes) <> List.length flows then
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
      if Flit.pending f = 0 then begin
        (* a drained run: every hop crossed a topology link, and every
           flit crossed one switch per hop plus its ejection switch *)
        let topo = arch.Syn.topology in
        let link_sum =
          Edge_map.fold
            (fun (u, v) n acc ->
              if not (D.mem_edge topo u v) then
                QCheck.Test.fail_reportf "seed %d: link_flits key %d->%d is no link" seed u v;
              acc + n)
            (Flit.link_flits f) 0
        in
        let switch_sum = D.Vmap.fold (fun _ n acc -> acc + n) (Flit.switch_flits f) 0 in
        if link_sum <> Flit.flit_hops f then
          QCheck.Test.fail_reportf "seed %d: link_flits sum %d <> flit_hops %d" seed link_sum
            (Flit.flit_hops f);
        if switch_sum <> Flit.flit_hops f + Flit.delivered_flits f then
          QCheck.Test.fail_reportf "seed %d: switch_flits sum %d <> hops %d + delivered %d"
            seed switch_sum (Flit.flit_hops f) (Flit.delivered_flits f)
      end;
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

(* ---------------------------------------------------------------- *)
(* Exact behaviour pin                                               *)

(* One MD5 per case over everything the engine reports: the verdict,
   the clock, every counter, every delivery in order, the per-link and
   per-switch activity maps and the metrics.  The constants below were
   generated at a commit before any rewrite of the engine's hot path, so
   a rewrite passes only if it is cycle-for-cycle identical.  Never
   regenerate them to make a change pass; regenerate only at a parent
   commit, and only when the engine's behaviour is meant to change. *)

let pin_window = 300
let pin_drain = 3000
let pin_rates = [ 0.01; 0.05; 0.2 ]

let pin_configs =
  let d = Flit.default_config in
  [
    ("default", d);
    ("depth1", { d with Flit.fifo_depth = 1 });
    ("wide-rd2", { d with Flit.phit_bits = 32; router_delay = 2 });
    ("vc2-depth2-8bit", { d with Flit.num_vcs = 2; fifo_depth = 2; flit_bits = 8 });
  ]

let pin_ring =
  Syn.make ~topology:(G.bidirectional_ring 4)
    ~routes:
      (Edge_map.of_seq
         (List.to_seq
            [
              ((1, 4), [ 1; 2; 3; 4 ]);
              ((2, 1), [ 2; 3; 4; 1 ]);
              ((3, 2), [ 3; 4; 1; 2 ]);
              ((4, 3), [ 4; 1; 2; 3 ]);
            ]))

(* Bernoulli 2-flit packets on every flow for [pin_window] cycles, then
   a drain of at most [pin_drain] cycles; digest of the final state. *)
let pin_digest ~config ~rate ~flows arch =
  let f = Flit.create ~config arch in
  let rng = Prng.create ~seed:42 in
  for _ = 1 to pin_window do
    List.iter
      (fun (src, dst) ->
        if Prng.bernoulli rng rate then ignore (Flit.inject ~size_flits:2 f ~src ~dst))
      flows;
    Flit.step f
  done;
  let verdict =
    match Flit.run_until_idle ~max_cycles:pin_drain f with
    | `Idle -> "idle"
    | `Deadlock -> "deadlock"
    | `Limit n -> Printf.sprintf "limit %d" n
  in
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  add "%s now=%d hops=%d bfc=%d inj=%d del=%d infl=%d\n" verdict (Flit.now f)
    (Flit.flit_hops f) (Flit.buffer_flit_cycles f) (Flit.injected_flits f)
    (Flit.delivered_flits f) (Flit.in_flight_flits f);
  List.iter
    (fun (d : Flit.delivery) ->
      let p = d.Flit.packet in
      add "d %d %d %d %d %d\n" p.Packet.id p.Packet.src p.Packet.dst p.Packet.injected_at
        d.Flit.delivered_at)
    (Flit.deliveries f);
  Edge_map.iter (fun (u, v) n -> add "l %d %d %d\n" u v n) (Flit.link_flits f);
  D.Vmap.iter (fun v n -> add "s %d %d\n" v n) (Flit.switch_flits f);
  List.iter (fun (k, x) -> add "m %s %h\n" k x) (Flit.metrics f);
  Digest.to_hex (Digest.string (Buffer.contents b))

let pin_cases () =
  let budget = Bb.Budget.(default |> with_max_nodes 20_000) in
  let corpus =
    List.concat_map
      (fun (s : Noc_benchkit.Corpus.scenario) ->
        let d, _ = Bb.decompose ~budget ~library:(lib ()) s.acg in
        let arch = Syn.custom s.acg d and flows = D.edges (Acg.graph s.acg) in
        List.concat_map
          (fun (cname, config) ->
            List.map
              (fun rate ->
                ( Printf.sprintf "%s/%s/%g" s.name cname rate,
                  pin_digest ~config ~rate ~flows arch ))
              pin_rates)
          pin_configs)
      (Noc_benchkit.Corpus.default ())
  in
  let ring_flows = List.map fst (Edge_map.bindings pin_ring.Syn.routes) in
  let ring =
    List.concat_map
      (fun num_vcs ->
        List.map
          (fun fifo_depth ->
            let config = { Flit.default_config with Flit.num_vcs; fifo_depth } in
            ( Printf.sprintf "ring/vc%d/depth%d" num_vcs fifo_depth,
              pin_digest ~config ~rate:0.2 ~flows:ring_flows pin_ring ))
          [ 1; 2; 4 ])
      [ 1; 2 ]
  in
  corpus @ ring

let pinned_digests =
  [
    ("fig2/default/0.01", "b7a404b30af87c6ac7ba40582be9ad0e");
    ("fig2/default/0.05", "f0b775f7a2aee0171e6149a1026d3fbc");
    ("fig2/default/0.2", "8ad4e2aab1869cc7362fe05458e3bf13");
    ("fig2/depth1/0.01", "add4ce89595067b19b8165abeee02a64");
    ("fig2/depth1/0.05", "a956cc93ba3c2407b506ba4a5d9747b7");
    ("fig2/depth1/0.2", "c914bd7d794b925d5a2f25ca43337e61");
    ("fig2/wide-rd2/0.01", "5c87de3a8665d20e8c30ca469688eb03");
    ("fig2/wide-rd2/0.05", "d93b4a1300a6850aacc8d15a96a13d7f");
    ("fig2/wide-rd2/0.2", "1eb48fff15f8151820ac2511f66919db");
    ("fig2/vc2-depth2-8bit/0.01", "30969a14d279860578af31a45eedfc6e");
    ("fig2/vc2-depth2-8bit/0.05", "fb1545c6ea046b8278cd74bec6a71445");
    ("fig2/vc2-depth2-8bit/0.2", "ab8a5cacbcea2088819c87d2e5fd9f57");
    ("fig5/default/0.01", "752858c400a305638fa6dc09f04b1852");
    ("fig5/default/0.05", "037e3dc7188684c57fc63eab31eb629b");
    ("fig5/default/0.2", "2b7642c604479b157e7fced96dfef065");
    ("fig5/depth1/0.01", "6f949bd6b87235ca99fe855fcbe9732f");
    ("fig5/depth1/0.05", "60a9bf0bc870a943c48e2b7ccc0def7d");
    ("fig5/depth1/0.2", "bfdd59a0b908d0980769a05bc25632ce");
    ("fig5/wide-rd2/0.01", "d9b9f26784d73d9b681a0b11c8ec5a0e");
    ("fig5/wide-rd2/0.05", "12175b66eaa56b71c2c39fd86a6e8858");
    ("fig5/wide-rd2/0.2", "886fee5f0579472650c90335d93223e7");
    ("fig5/vc2-depth2-8bit/0.01", "33f978623c837a918f4ff6e0bf719d02");
    ("fig5/vc2-depth2-8bit/0.05", "097f98663a24810060cc257470de7f47");
    ("fig5/vc2-depth2-8bit/0.2", "e8f9ef2152a78faeb59c2e787873e0b2");
    ("aes/default/0.01", "7cc093058b8752e1fda7d0198f05b6d3");
    ("aes/default/0.05", "c93c2cd9c29b0b3abbf33d074550a1b7");
    ("aes/default/0.2", "8074fb8e4914edcdf95f51941c890f1a");
    ("aes/depth1/0.01", "256edf3226466902c9820cab7ad09992");
    ("aes/depth1/0.05", "6dddd4805f5e3557f67ae69d73d258a8");
    ("aes/depth1/0.2", "92f7879c4978157f0fbb6cfdd19faca3");
    ("aes/wide-rd2/0.01", "d2df57d842800afc5ad6c7dc592b2a54");
    ("aes/wide-rd2/0.05", "95a63b8f205d894668cc9646c6943887");
    ("aes/wide-rd2/0.2", "9a9ba43476426b1cae681ba8523dc186");
    ("aes/vc2-depth2-8bit/0.01", "632814bdebba3cf635ade836dc8b2b10");
    ("aes/vc2-depth2-8bit/0.05", "037d06776ea43472fc21a2d631801274");
    ("aes/vc2-depth2-8bit/0.2", "3bbe0526f6701669574c2db32800b26d");
    ("vopd/default/0.01", "87fdf12d2c3e5403b406e7d5ac55f2a3");
    ("vopd/default/0.05", "0441d7e0e4c9ce0e0dade4024adfee49");
    ("vopd/default/0.2", "8076051823e10a0cb5ebae79a4631ece");
    ("vopd/depth1/0.01", "f94cd49640dc1ad874b56730c9b85a12");
    ("vopd/depth1/0.05", "b67473e166b214872616998cc0a59535");
    ("vopd/depth1/0.2", "b6b72e35dc1930aab4321cccc87dab05");
    ("vopd/wide-rd2/0.01", "a5f61360d0067eeebcf077588a2df9b1");
    ("vopd/wide-rd2/0.05", "6a78549a29d727064eb798544f4ea9fb");
    ("vopd/wide-rd2/0.2", "bbe1265ea980377c6a2d41a7a004a8ef");
    ("vopd/vc2-depth2-8bit/0.01", "51f1d164b45807ea99381209b45efc11");
    ("vopd/vc2-depth2-8bit/0.05", "4fa03307ae9d08a2e36bcdb5369eb750");
    ("vopd/vc2-depth2-8bit/0.2", "de3aa8b2414a0cc3627015dbebf13388");
    ("mpeg4/default/0.01", "b7ef0ec1f4e87b9075be955da86d23c4");
    ("mpeg4/default/0.05", "2dfea29c41989fdf515c2cc379c503d2");
    ("mpeg4/default/0.2", "224bc29b9d17ec8e4c7e7ff3eff352cd");
    ("mpeg4/depth1/0.01", "05444053eac35b1832878352dc1f9110");
    ("mpeg4/depth1/0.05", "78302a589ed503eb90cf1e702dac9a3c");
    ("mpeg4/depth1/0.2", "2b9cecc0eecb99dd668f00b89fd1b3e7");
    ("mpeg4/wide-rd2/0.01", "4117664ef3c2836009f6c998b7044ea4");
    ("mpeg4/wide-rd2/0.05", "9d27e9795faa42f453b4c15740e44922");
    ("mpeg4/wide-rd2/0.2", "cb0d403c2b3227711d5705ecafd9199f");
    ("mpeg4/vc2-depth2-8bit/0.01", "d9ae9d09fd3fa137413b96d7988a6d8b");
    ("mpeg4/vc2-depth2-8bit/0.05", "0c6167ea6836734c361402da0af20e42");
    ("mpeg4/vc2-depth2-8bit/0.2", "9a2a7fa77302d93293581a11813db59e");
    ("fft16/default/0.01", "58e60c485127d7bb97689bc3dab3f5a4");
    ("fft16/default/0.05", "4509c51b7c695fffbded81e860662961");
    ("fft16/default/0.2", "63c2ce9d86758fae2e07fcbb4a336ea0");
    ("fft16/depth1/0.01", "6c07a6ca86184ee8bcbebf0afad1d02e");
    ("fft16/depth1/0.05", "4d02b1e67db2ae585e140f68f9223b3c");
    ("fft16/depth1/0.2", "5989bd9e3b370167f726cfbf849e20b5");
    ("fft16/wide-rd2/0.01", "8a0ed5a30fad7f186698a93487365e57");
    ("fft16/wide-rd2/0.05", "ccf2ff6c91aa915013a14a2862903bdf");
    ("fft16/wide-rd2/0.2", "91296f2adb2f1fc6efe88804bd438af8");
    ("fft16/vc2-depth2-8bit/0.01", "815ef3171048c93c41f9ed5c7030174c");
    ("fft16/vc2-depth2-8bit/0.05", "a774b833bf8c81a3d9c928d980155240");
    ("fft16/vc2-depth2-8bit/0.2", "e8c2a0cd823c2787106d6b20d97e0891");
    ("tgff-automotive-s11/default/0.01", "e7eddfb924281ab55788ae9a2c3b29e5");
    ("tgff-automotive-s11/default/0.05", "a1f481f42dbcebc798e2d40e793e13c5");
    ("tgff-automotive-s11/default/0.2", "4f918e2b5b1b89bfdc0c8933c8926fdc");
    ("tgff-automotive-s11/depth1/0.01", "13e480f08e42693264276fd2ac2324f8");
    ("tgff-automotive-s11/depth1/0.05", "6a2896f25e51d85b6241bae47a42898f");
    ("tgff-automotive-s11/depth1/0.2", "f1a67192c1e66b911fbbc4312112e8c5");
    ("tgff-automotive-s11/wide-rd2/0.01", "c1ef6f7cc14400fad88ff15690e2be69");
    ("tgff-automotive-s11/wide-rd2/0.05", "73973a388ae6a3d3c02143ea66a073dc");
    ("tgff-automotive-s11/wide-rd2/0.2", "174a6cf9374b5660a1e98a14c993787d");
    ("tgff-automotive-s11/vc2-depth2-8bit/0.01", "b2de4a61d820755d4a99e8b982e4eac1");
    ("tgff-automotive-s11/vc2-depth2-8bit/0.05", "21907bd44b4ed784d36bd5bf7eca6584");
    ("tgff-automotive-s11/vc2-depth2-8bit/0.2", "cfefb82e3927ca9173c248b9ff23ae0a");
    ("tgff-telecom-s7/default/0.01", "17e74d55dbb05a3d948e62fa97e733e5");
    ("tgff-telecom-s7/default/0.05", "f817d904a5c0a2d1d864f51f8acd05db");
    ("tgff-telecom-s7/default/0.2", "443fe7158a02acd4e03fb17a60a4f19b");
    ("tgff-telecom-s7/depth1/0.01", "43c2d6045f405fc3f9795f01c8f0ff0f");
    ("tgff-telecom-s7/depth1/0.05", "7382d32a3076bd3efc89b5c33efffa27");
    ("tgff-telecom-s7/depth1/0.2", "6305ea92dfa42df0fa3bcd0af10bb313");
    ("tgff-telecom-s7/wide-rd2/0.01", "f15968fb7635a7021f88c7a8efcb849e");
    ("tgff-telecom-s7/wide-rd2/0.05", "67579e01e5a4c7b6785fa94c43603197");
    ("tgff-telecom-s7/wide-rd2/0.2", "0e3ea2cf4bce723e771aa8da75954eeb");
    ("tgff-telecom-s7/vc2-depth2-8bit/0.01", "8c9025462a2218f9de7a84defe592008");
    ("tgff-telecom-s7/vc2-depth2-8bit/0.05", "9ab8a42b75084cf5554cef0436bf0bbc");
    ("tgff-telecom-s7/vc2-depth2-8bit/0.2", "ca7571f9d2a0c50cd8981d0071eca23c");
    ("tgff-12-s3/default/0.01", "f3a8b3b22c9dfa1bce4301ee930cd11e");
    ("tgff-12-s3/default/0.05", "af0003ac529912950f7aaf0c8deeb0b8");
    ("tgff-12-s3/default/0.2", "d3403308cf22396109c7d4b3aaf00223");
    ("tgff-12-s3/depth1/0.01", "cc1c6dd91588af4b58eb0013d1538486");
    ("tgff-12-s3/depth1/0.05", "a2eb576e9bca8c799736f158124a87fa");
    ("tgff-12-s3/depth1/0.2", "6724f8e4289d80e677f34c54771cc6f1");
    ("tgff-12-s3/wide-rd2/0.01", "c2734f7c10ee093d09a0bcd2fe934785");
    ("tgff-12-s3/wide-rd2/0.05", "bc82e566c5a5f77f9e26a3e0c7dbd34b");
    ("tgff-12-s3/wide-rd2/0.2", "ae4477e189f4cf3b59a85883f1db38ef");
    ("tgff-12-s3/vc2-depth2-8bit/0.01", "d0d64ee04551d8650aace69c8d8b0561");
    ("tgff-12-s3/vc2-depth2-8bit/0.05", "fb5798ea12476db0acb1b235a74b6076");
    ("tgff-12-s3/vc2-depth2-8bit/0.2", "530aa425a486ecc887acf5eec2d0dd23");
    ("tgff-16-s5/default/0.01", "c559c2eec59bf17187643786943a7051");
    ("tgff-16-s5/default/0.05", "0ca2998129c2157cd23c58aefe6dcf98");
    ("tgff-16-s5/default/0.2", "df7c745d812dac6242e468648270c4ca");
    ("tgff-16-s5/depth1/0.01", "d586969163585ad8e33e9a4181f97048");
    ("tgff-16-s5/depth1/0.05", "3f6d2d90c51eb30d287eeb7e4a0ef60f");
    ("tgff-16-s5/depth1/0.2", "25d7066ad532e3d535087c6360a5009e");
    ("tgff-16-s5/wide-rd2/0.01", "6f66311c7c7324a7aad5bd4cfb8a960b");
    ("tgff-16-s5/wide-rd2/0.05", "79016e668ed555998893b6a4fe9c650b");
    ("tgff-16-s5/wide-rd2/0.2", "e7f1fb200e3b864838bc918cea7d8a34");
    ("tgff-16-s5/vc2-depth2-8bit/0.01", "1a3faff2378209abb7b3391c212ba227");
    ("tgff-16-s5/vc2-depth2-8bit/0.05", "27756e31f2627498fb537d81a16a6587");
    ("tgff-16-s5/vc2-depth2-8bit/0.2", "9481d367604d572d29ffd02df5271867");
    ("rand-12-s1/default/0.01", "ae1d021673f876ca4c2eb5d08a67028a");
    ("rand-12-s1/default/0.05", "db51a1d0d5f7bd216d333098321022b2");
    ("rand-12-s1/default/0.2", "7025725bbafb551edf1ccf01f28cd99c");
    ("rand-12-s1/depth1/0.01", "e02fbf269cfcad7ac38d48b054760f7f");
    ("rand-12-s1/depth1/0.05", "5d895d7985139942183b0a97bb38b6c5");
    ("rand-12-s1/depth1/0.2", "c3b3ee5bd2d5c58f98f5a89100dfd77e");
    ("rand-12-s1/wide-rd2/0.01", "8f5d2d5ad8da4f7e96ccf249648cafe1");
    ("rand-12-s1/wide-rd2/0.05", "b0c54c900fdee7f40e5071434a49ed68");
    ("rand-12-s1/wide-rd2/0.2", "aafeb4e30b1d3268c83c2296af204cd9");
    ("rand-12-s1/vc2-depth2-8bit/0.01", "fcad435d585e1fbb6f2100e76b42f648");
    ("rand-12-s1/vc2-depth2-8bit/0.05", "b2103a9c0e8fbab708e77616b74b95d7");
    ("rand-12-s1/vc2-depth2-8bit/0.2", "32d654eff76f2c8d4dc3fdb2f87e7fd3");
    ("rand-16-s2/default/0.01", "6b1fcc613d8c81d8e3a2c80a0aa8b620");
    ("rand-16-s2/default/0.05", "229d13abfa612d0f79dad5bed5035e7c");
    ("rand-16-s2/default/0.2", "2ae67f4b73edeaa3cd46512558a01280");
    ("rand-16-s2/depth1/0.01", "b251962bdaba07a1bef941d6445b627c");
    ("rand-16-s2/depth1/0.05", "453bcaf102d0265cad7cefd5353a6883");
    ("rand-16-s2/depth1/0.2", "212a8c4f156fa0c7c5e93ea667d909d8");
    ("rand-16-s2/wide-rd2/0.01", "9c7a218c625816d95db2f7e734a60f79");
    ("rand-16-s2/wide-rd2/0.05", "762565a1ee64e000c2b583318373a98f");
    ("rand-16-s2/wide-rd2/0.2", "5816400d79cc45b4b61bfb2e5978010c");
    ("rand-16-s2/vc2-depth2-8bit/0.01", "863a50dc3abf745ffe6d1f7cadbedd8b");
    ("rand-16-s2/vc2-depth2-8bit/0.05", "f0bed37f7a3d79e9ab2d2083c408a274");
    ("rand-16-s2/vc2-depth2-8bit/0.2", "7cefe231ced75972bb80a66e59bdd241");
    ("ring/vc1/depth1", "eb6703837ba2045e07120cfe320b67e6");
    ("ring/vc1/depth2", "82b83ecae9156f29cbea2911e3d73601");
    ("ring/vc1/depth4", "9d9bfa5dd861b9382214658696c116da");
    ("ring/vc2/depth1", "313fd96451fc093eb070da7357f274dd");
    ("ring/vc2/depth2", "19d0841f8cc6969b409b89722c8ea01f");
    ("ring/vc2/depth4", "21f21a10e505d3f00df7c9080502bfbb");
  ]

let test_flit_pinned () =
  let got = pin_cases () in
  (* the test's output log holds the table to paste when re-pinning *)
  List.iter (fun (k, h) -> Printf.printf "    (%S, %S);\n" k h) got;
  Alcotest.(check int) "case count" (List.length pinned_digests) (List.length got);
  List.iter2
    (fun (k, want) (k', h) ->
      Alcotest.(check string) "case name" k k';
      Alcotest.(check string) k want h)
    pinned_digests got

(* [reset] keeps the fabric, so the adopted topology must be a subgraph
   of it: a route over a link the fabric lacks is refused at its first
   inject, and a route over links it has runs as on a fresh engine, even
   after a run left flits behind. *)
let test_flit_reset_subgraph () =
  let net = Flit.create (line_arch 2) in
  ignore (Flit.inject ~size_flits:2 net ~src:0 ~dst:2);
  Flit.step net;
  Flit.step net;
  let shortcut =
    Syn.make ~topology:(D.add_edge D.empty 0 2) ~routes:(Edge_map.singleton (0, 2) [ 0; 2 ])
  in
  Flit.reset net shortcut;
  Alcotest.(check bool) "adopts the architecture" true (Flit.arch net == shortcut);
  Alcotest.(check int) "cycle restarts" 0 (Flit.now net);
  Alcotest.(check int) "fabric emptied" 0 (Flit.in_flight_flits net);
  Alcotest.check_raises "a link the fabric lacks"
    (Invalid_argument "Flitsim.inject: route 0-2 crosses a link the engine lacks") (fun () ->
      ignore (Flit.inject net ~src:0 ~dst:2));
  Flit.reset net (line_arch 2);
  let fresh = Flit.create (line_arch 2) in
  List.iter (fun e -> ignore (Flit.inject ~size_flits:2 e ~src:0 ~dst:2)) [ net; fresh ];
  Alcotest.(check bool) "drains" true (Flit.run_until_idle net = `Idle);
  ignore (Flit.run_until_idle fresh);
  Alcotest.(check int) "cycles of a fresh engine" (Flit.now fresh) (Flit.now net);
  Alcotest.(check bool) "deliveries of a fresh engine" true
    (Flit.deliveries fresh = Flit.deliveries net)

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
      Alcotest.test_case "flit: exact behaviour is pinned" `Quick test_flit_pinned;
      Alcotest.test_case "flit: reset needs a subgraph of the fabric" `Quick
        test_flit_reset_subgraph;
    ] )
