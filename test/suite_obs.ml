(* The observability layer: JSON emission, domain-safe counters, the Chrome
   trace sink, and — most importantly — the differential guarantee that
   attaching an observer changes NOTHING about what the engines compute. *)

module Obs = Noc_obs.Obs
module J = Obs.Json
module D = Noc_graph.Digraph
module G = Noc_graph.Generators
module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Decomp = Noc_core.Decomposition
module Syn = Noc_core.Synthesis
module L = Noc_primitives.Library
module Prng = Noc_util.Prng

let lib () = L.default ()

(* ------------------------------------------------------------------ *)
(* The emitted JSON is read back with the library's own [Json.parse]
   (promoted out of this file when the benchmark record tooling needed it):
   if this round-trips, Perfetto will read the trace too. *)

let parse_json (s : string) : J.t =
  match J.parse s with
  | Ok v -> v
  | Error (`Msg m) -> Alcotest.failf "bad JSON: %s" m

let member = J.member

(* ------------------------------------------------------------------ *)
(* JSON emission                                                        *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "line\nbreak \"quoted\" back\\slash\ttab");
        ("ctl", J.Str "\001\031");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("whole", J.Float 3.0);
        ("nan", J.Float Float.nan);
        ("inf", J.Float Float.infinity);
        ("b", J.Bool true);
        ("l", J.List [ J.Int 1; J.Null; J.Str "x" ]);
        ("empty_o", J.Obj []);
        ("empty_l", J.List []);
      ]
  in
  let parsed = parse_json (J.to_string v) in
  let get k = Option.get (member k parsed) in
  Alcotest.(check string)
    "string with escapes" "line\nbreak \"quoted\" back\\slash\ttab"
    (match get "s" with J.Str s -> s | _ -> "?");
  Alcotest.(check string)
    "control chars round-trip" "\001\031"
    (match get "ctl" with J.Str s -> s | _ -> "?");
  Alcotest.(check bool) "int" true (get "i" = J.Int (-42));
  Alcotest.(check bool) "float" true (get "f" = J.Float 1.5);
  (* whole floats render as integers; both are the same JSON number *)
  Alcotest.(check bool) "whole float" true (get "whole" = J.Int 3);
  Alcotest.(check bool) "nan -> null" true (get "nan" = J.Null);
  Alcotest.(check bool) "inf -> null" true (get "inf" = J.Null);
  Alcotest.(check bool) "nested list" true (get "l" = J.List [ J.Int 1; J.Null; J.Str "x" ]);
  Alcotest.(check bool) "empty containers" true
    (get "empty_o" = J.Obj [] && get "empty_l" = J.List [])

(* ------------------------------------------------------------------ *)
(* Counters, gauges, the observer registry                              *)

let test_counters_across_domains () =
  let obs = Obs.create () in
  let c = Obs.counter obs "hits" in
  let worker () =
    (* every domain asks the registry for the same name *)
    let c' = Obs.counter obs "hits" in
    for _ = 1 to 10_000 do
      Obs.Counter.incr c'
    done
  in
  let doms = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join doms;
  Alcotest.(check int) "4 x 10k increments, no lost updates" 40_000 (Obs.Counter.get c);
  Obs.Gauge.set (Obs.gauge obs "depth") 7.5;
  Alcotest.(check (float 0.0)) "gauge last-write" 7.5 (Obs.Gauge.get (Obs.gauge obs "depth"));
  (* counters first, then gauges, each group sorted by name *)
  match Obs.metrics obs with
  | [ ("hits", J.Int 40_000); ("depth", J.Float 7.5) ] -> ()
  | m -> Alcotest.failf "unexpected metrics: %s" (J.to_string (J.Obj m))

let test_disabled_observer_is_inert () =
  let obs = Obs.disabled in
  Alcotest.(check bool) "disabled" false (Obs.enabled obs);
  let r = Obs.span obs "work" (fun () -> 41 + 1) in
  Alcotest.(check int) "span runs the body" 42 r;
  Obs.instant obs "nothing";
  Obs.sample obs "nothing" 1.0;
  Obs.Counter.incr (Obs.counter obs "scratch");
  Alcotest.(check (list (pair string Alcotest.reject))) "no metrics" [] (Obs.metrics obs);
  match parse_json (Obs.Trace.to_string obs) with
  | J.Obj [ ("traceEvents", J.List []) ] -> ()
  | other -> Alcotest.failf "disabled trace not empty: %s" (J.to_string other)

let test_trace_shape () =
  let obs = Obs.create () in
  let x = Obs.span obs ~cat:"t" ~args:[ ("k", J.Int 1) ] "outer" (fun () ->
      Obs.instant obs "mark";
      Obs.sample obs "load" 0.5;
      17)
  in
  Alcotest.(check int) "span result" 17 x;
  Obs.Counter.add (Obs.counter obs "n") 3;
  let j = parse_json (Obs.Trace.to_string obs) in
  let events =
    match member "traceEvents" j with
    | Some (J.List es) -> es
    | _ -> Alcotest.fail "no traceEvents"
  in
  Alcotest.(check bool) "at least mark+load+outer+final n" true (List.length events >= 4);
  List.iter
    (fun e ->
      (match member "name" e with
      | Some (J.Str _) -> ()
      | _ -> Alcotest.fail "event without name");
      (match member "ph" e with
      | Some (J.Str ("X" | "i" | "C")) -> ()
      | _ -> Alcotest.fail "event with unknown phase");
      match member "ts" e with
      | Some (J.Float _ | J.Int _) -> ()
      | _ -> Alcotest.fail "event without timestamp")
    events;
  let phases =
    List.filter_map (fun e -> match member "ph" e with Some (J.Str p) -> Some p | _ -> None) events
  in
  Alcotest.(check bool) "has a complete span" true (List.mem "X" phases);
  Alcotest.(check bool) "has an instant" true (List.mem "i" phases);
  Alcotest.(check bool) "has counter samples" true (List.mem "C" phases);
  match member "displayTimeUnit" j with
  | Some (J.Str "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing"

let test_span_records_on_raise () =
  let obs = Obs.create () in
  (try Obs.span obs "boom" (fun () -> failwith "x") with Failure _ -> ());
  let j = parse_json (Obs.Trace.to_string obs) in
  match member "traceEvents" j with
  | Some (J.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "span lost on exception"

(* ------------------------------------------------------------------ *)
(* Differential: observation changes nothing                            *)

let render acg d = Format.asprintf "%a" (Decomp.pp_with_cost Noc_core.Cost.Edge_count acg) d

let same_result ?options ?budget acg =
  let d0, s0 = Bb.decompose ?options ?budget ~library:(lib ()) acg in
  let obs = Obs.create () in
  let d1, s1 = Bb.decompose ?options ?budget ~observe:obs ~library:(lib ()) acg in
  render acg d0 = render acg d1
  && s0.Bb.best_cost = s1.Bb.best_cost
  && s0.Bb.nodes = s1.Bb.nodes
  && s0.Bb.matches_tried = s1.Bb.matches_tried

let test_fig5_listing_observed () =
  let acg = Suite_core.fig5_acg () in
  let obs = Obs.create () in
  let d, s = Bb.decompose ~observe:obs ~library:(lib ()) acg in
  let plain, s0 = Bb.decompose ~library:(lib ()) acg in
  Alcotest.(check string) "sequential listing identical under observation"
    (render acg plain) (render acg d);
  Alcotest.(check (float 1e-9)) "cost 17" 17.0 s.Bb.best_cost;
  Alcotest.(check int) "same tree" s0.Bb.nodes s.Bb.nodes;
  let obs4 = Obs.create () in
  let d4, s4 =
    Bb.decompose
      ~budget:Bb.Budget.(default |> with_domains 4)
      ~observe:obs4 ~library:(lib ()) acg
  in
  Alcotest.(check string) "4-domain listing identical under observation"
    (render acg plain) (render acg d4);
  Alcotest.(check (float 1e-9)) "cost 17 (domains)" 17.0 s4.Bb.best_cost;
  (* the instrumented run populated the observer *)
  Alcotest.(check bool) "search.nodes counter present" true
    (List.mem_assoc "search.nodes" (Obs.metrics obs))

let test_fig6_listing_observed () =
  let acg = Noc_aes.Distributed.acg () in
  let plain, _ = Bb.decompose ~library:(lib ()) acg in
  let obs = Obs.create () in
  let d, s = Bb.decompose ~observe:obs ~library:(lib ()) acg in
  Alcotest.(check string) "AES listing identical under observation"
    (render acg plain) (render acg d);
  Alcotest.(check (float 1e-9)) "COST: 28" 28.0 s.Bb.best_cost;
  Alcotest.(check bool) "vf2 probes counted" true (s.Bb.vf2.Bb.probes > 0)

let qcheck_observer_differential =
  QCheck.Test.make ~name:"decompose: observer on/off bit-identical (sequential)"
    ~count:15
    QCheck.(pair small_int (int_range 6 12))
    (fun (seed, n) ->
      let rng = Prng.create ~seed:(seed + 9200) in
      let g = G.erdos_renyi ~rng ~n ~p:(3.0 /. float_of_int (n - 1)) in
      let acg = Acg.uniform ~volume:16 ~bandwidth:0.1 g in
      same_result acg)

let qcheck_observer_differential_parallel =
  QCheck.Test.make ~name:"decompose: observer on/off bit-identical (4 domains)"
    ~count:8
    QCheck.(pair small_int (int_range 6 11))
    (fun (seed, n) ->
      let rng = Prng.create ~seed:(seed + 9300) in
      let g = G.erdos_renyi ~rng ~n ~p:(3.0 /. float_of_int (n - 1)) in
      let acg = Acg.uniform ~volume:16 ~bandwidth:0.1 g in
      same_result ~budget:Bb.Budget.(default |> with_domains 4) acg)

let test_vf2_instr_order_unchanged () =
  let aes = Acg.graph (Noc_aes.Distributed.acg ()) in
  let mgg4 = (Option.get (L.find_by_name (lib ()) "MGG4")).L.prim in
  let pattern = Noc_graph.Compact.freeze mgg4.Noc_primitives.Primitive.repr in
  let target = Noc_graph.Compact.(view (freeze aes)) in
  let plain = Noc_graph.Vf2.find_distinct_images_view ~pattern ~target () in
  let instr = Noc_graph.Vf2.Instr.create () in
  let counted = Noc_graph.Vf2.find_distinct_images_view ~instr ~pattern ~target () in
  let render ms = List.map D.Vmap.bindings ms in
  Alcotest.(check bool) "same matches, same order" true (render plain = render counted);
  Alcotest.(check bool) "probes counted" true (Noc_graph.Vf2.Instr.probes instr > 0);
  Alcotest.(check bool) "backtracks counted" true
    (Noc_graph.Vf2.Instr.backtracks instr > 0)

(* ------------------------------------------------------------------ *)
(* Budget                                                               *)

let test_budget_limits_search () =
  let acg = Suite_core.fig2_acg () in
  let _, s1 =
    Bb.decompose
      ~options:{ Bb.default_options with neutrals = Bb.Branch }
      ~budget:Bb.Budget.(default |> with_max_nodes 50)
      ~library:(lib ()) acg
  in
  Alcotest.(check bool) "hits the node budget" true s1.Bb.timed_out;
  Alcotest.(check bool) "nodes bounded" true (s1.Bb.nodes <= 51);
  let _, s2 =
    Bb.decompose
      ~options:{ Bb.default_options with neutrals = Bb.Branch }
      ~budget:Bb.Budget.default ~library:(lib ()) acg
  in
  Alcotest.(check bool) "default budget completes the search" true
    (not s2.Bb.timed_out);
  let b = Bb.Budget.(default |> with_timeout_s (Some 1.0) |> with_domains 3) in
  Alcotest.(check bool) "builders" true
    (b.Bb.Budget.timeout_s = Some 1.0
    && b.Bb.Budget.domains = 3
    && b.Bb.Budget.max_nodes = Bb.Budget.default.Bb.Budget.max_nodes)

let test_stats_json () =
  let acg = Noc_aes.Distributed.acg () in
  let obs = Obs.create () in
  let _, s = Bb.decompose ~observe:obs ~library:(lib ()) acg in
  let j = parse_json (J.to_string (Bb.stats_to_json s)) in
  let int_at k =
    match member k j with
    | Some (J.Int i) -> i
    | other ->
        Alcotest.failf "field %s: %s" k
          (match other with Some o -> J.to_string o | None -> "missing")
  in
  Alcotest.(check int) "nodes" s.Bb.nodes (int_at "nodes");
  Alcotest.(check int) "pruned" s.Bb.pruned (int_at "pruned");
  Alcotest.(check int) "incumbents" s.Bb.incumbents (int_at "incumbents");
  Alcotest.(check bool) "found at least one incumbent" true (s.Bb.incumbents >= 1);
  (match member "per_primitive" j with
  | Some (J.Obj prims) -> (
      match List.assoc_opt "MGG4" prims with
      | Some p ->
          Alcotest.(check bool) "MGG4 attempted" true
            (match member "attempts" p with Some (J.Int a) -> a > 0 | _ -> false)
      | None -> Alcotest.fail "per_primitive lacks MGG4")
  | _ -> Alcotest.fail "per_primitive missing");
  match member "vf2" j with
  | Some v ->
      Alcotest.(check bool) "vf2 probes in json" true
        (match member "probes" v with Some (J.Int p) -> p > 0 | _ -> false)
  | None -> Alcotest.fail "vf2 missing"

(* ------------------------------------------------------------------ *)
(* End-to-end: decompose with a trace file                              *)

let test_decompose_trace_smoke () =
  let acg = Noc_aes.Distributed.acg () in
  let obs = Obs.create () in
  let _ =
    Bb.decompose
      ~budget:Bb.Budget.(default |> with_domains 2)
      ~observe:obs ~library:(lib ()) acg
  in
  let path = Filename.temp_file "nocsynth_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.write obs ~path;
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let j = parse_json text in
      let events =
        match member "traceEvents" j with
        | Some (J.List es) -> es
        | _ -> Alcotest.fail "traceEvents missing"
      in
      Alcotest.(check bool) "trace has events" true (events <> []);
      let names =
        List.filter_map
          (fun e -> match member "name" e with Some (J.Str s) -> Some s | _ -> None)
          events
      in
      Alcotest.(check bool) "search span present" true
        (List.mem "branch-and-bound" names);
      Alcotest.(check bool) "incumbent event present" true (List.mem "incumbent" names);
      Alcotest.(check bool) "final counters sampled" true
        (List.mem "search.nodes" names);
      (* per-domain utilization gauges from the parallel driver *)
      Alcotest.(check bool) "domain busy gauges" true
        (List.exists
           (fun n ->
             String.length n > 14 && String.sub n 0 14 = "search.domain.")
           names));
  (* the AES search is a chain of five nodes, each branching on the first
     step of its parent's greedy leaf pass: one pass is computed and every
     child inherits the rest of it; the fallback seed runs a pass of its
     own *)
  let greedy_passes options =
    let obs = Obs.create () in
    ignore (Bb.decompose ~options ~observe:obs ~library:(lib ()) acg);
    match member "traceEvents" (Obs.Trace.to_json obs) with
    | Some (J.List es) ->
        List.length
          (List.filter
             (fun e ->
               member "name" e = Some (J.Str "greedy-pass")
               && member "cat" e = Some (J.Str "search"))
             es)
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check int) "one greedy-pass span" 1 (greedy_passes Bb.default_options);
  Alcotest.(check int) "two greedy-pass spans with the fallback seed" 2
    (greedy_passes { Bb.default_options with fallback = true })

(* ------------------------------------------------------------------ *)
(* Simulator metrics                                                    *)

let test_network_metrics_and_contention () =
  let acg = Noc_aes.Distributed.acg () in
  let arch = Syn.mesh ~rows:4 ~cols:4 acg in
  let net = Noc_sim.Engine.create Noc_sim.Engine.Coarse arch in
  Alcotest.(check int) "no buffering initially" 0 (Noc_sim.Flitsim.buffer_flit_cycles net);
  (* two packets fighting for the same output channel in the same cycle;
     routes only exist for ACG flows, so pick a real one *)
  let src, dst = List.hd (D.edges (Acg.graph acg)) in
  ignore (Noc_sim.Engine.inject ~size_flits:4 net ~src ~dst);
  ignore (Noc_sim.Engine.inject ~size_flits:4 net ~src ~dst);
  Alcotest.(check bool) "drained" true
    (Noc_sim.Engine.run_until_idle net = Noc_sim.Engine.Idle);
  (match Noc_sim.Flitsim.deliveries net with
  | [ a; b ] ->
      Alcotest.(check bool) "contention observed: the second worm trails the first" true
        (b.Noc_sim.Flitsim.delivered_at - a.Noc_sim.Flitsim.delivered_at >= 4)
  | ds -> Alcotest.failf "expected 2 deliveries, got %d" (List.length ds));
  let m = Noc_sim.Flitsim.metrics net in
  List.iter
    (fun key -> Alcotest.(check bool) key true (List.mem_assoc key m))
    [
      "flit.cycles"; "flit.injected_packets"; "flit.delivered_packets"; "flit.pending_packets";
      "flit.flit_hops"; "flit.buffer_flit_cycles"; "flit.in_flight_flits";
    ];
  Alcotest.(check (float 0.0)) "injected metric" 2.0 (List.assoc "flit.injected_packets" m);
  Alcotest.(check bool) "per-link flits counted" true
    (not (D.Edge_map.is_empty (Noc_sim.Flitsim.link_flits net)));
  Alcotest.(check bool) "per-router flits counted" true
    (not (D.Vmap.is_empty (Noc_sim.Flitsim.switch_flits net)));
  (* energy metrics are finite and consistent with the direct calls *)
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp =
    Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:16 ~size_mm:2.0)
  in
  let em = Noc_sim.Stats.energy_metrics ~tech ~fp net in
  Alcotest.(check (float 1e-9)) "total energy metric matches"
    (Noc_sim.Stats.total_energy_pj ~tech ~fp net)
    (List.assoc "total_energy_pj" em);
  Alcotest.(check bool) "avg power present" true (List.mem_assoc "avg_power_mw" em)

let suite =
  ( "obs",
    [
      Alcotest.test_case "json round-trip with escapes" `Quick test_json_roundtrip;
      Alcotest.test_case "counters across 4 domains" `Quick test_counters_across_domains;
      Alcotest.test_case "disabled observer is inert" `Quick test_disabled_observer_is_inert;
      Alcotest.test_case "trace event shape" `Quick test_trace_shape;
      Alcotest.test_case "span survives exceptions" `Quick test_span_records_on_raise;
      Alcotest.test_case "Fig. 5 listing under observation" `Quick
        test_fig5_listing_observed;
      Alcotest.test_case "Fig. 6 listing under observation" `Quick
        test_fig6_listing_observed;
      Alcotest.test_case "vf2 instrumentation keeps order" `Quick
        test_vf2_instr_order_unchanged;
      Alcotest.test_case "budget limits the search" `Quick test_budget_limits_search;
      Alcotest.test_case "stats to json" `Quick test_stats_json;
      Alcotest.test_case "decompose trace smoke" `Quick test_decompose_trace_smoke;
      Alcotest.test_case "network metrics + contention" `Quick
        test_network_metrics_and_contention;
      QCheck_alcotest.to_alcotest qcheck_observer_differential;
      QCheck_alcotest.to_alcotest qcheck_observer_differential_parallel;
    ] )
