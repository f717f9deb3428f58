(* Tests for the paper's core contribution: ACG handling, cost functions,
   matchings, the branch-and-bound decomposition (Section 4), constraint
   checking, architecture synthesis and deadlock analysis. *)

module D = Noc_graph.Digraph
module G = Noc_graph.Generators
module L = Noc_primitives.Library
module P = Noc_primitives.Primitive
module Acg = Noc_core.Acg
module Cost = Noc_core.Cost
module Matching = Noc_core.Matching
module Decomp = Noc_core.Decomposition
module Bb = Noc_core.Branch_bound
module Syn = Noc_core.Synthesis
module Cons = Noc_core.Constraints
module Dead = Noc_core.Deadlock
module Prng = Noc_util.Prng

let lib () = L.default ()

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let edge_count = Cost.Edge_count

(* -------------------------------------------------------------------- *)
(* Acg                                                                   *)

let test_acg_basics () =
  let acg = Acg.of_weighted_edges [ (1, 2, 100, 0.5); (2, 3, 50, 0.2) ] in
  Alcotest.(check int) "cores" 3 (Acg.num_cores acg);
  Alcotest.(check int) "flows" 2 (Acg.num_flows acg);
  Alcotest.(check int) "volume" 100 (Acg.volume acg 1 2);
  Alcotest.(check (float 1e-9)) "bandwidth" 0.2 (Acg.bandwidth acg 2 3);
  Alcotest.(check int) "non-edge volume" 0 (Acg.volume acg 3 1);
  Alcotest.(check int) "total" 150 (Acg.total_volume acg)

let test_acg_defaults () =
  let acg = Acg.make ~graph:(G.loop 3) () in
  Alcotest.(check int) "default volume 1" 1 (Acg.volume acg 1 2);
  Alcotest.(check (float 1e-9)) "default bandwidth 0" 0.0 (Acg.bandwidth acg 1 2)

let test_acg_rejects_bad_keys () =
  let vol = D.Edge_map.singleton (7, 9) 5 in
  Alcotest.check_raises "attr on non-edge"
    (Invalid_argument "Acg.make: volume attribute on non-edge 7->9") (fun () ->
      ignore (Acg.make ~graph:(G.loop 3) ~volume:vol ()))

let test_acg_uniform_and_restrict () =
  let acg = Acg.uniform ~volume:7 ~bandwidth:0.3 (G.complete 4) in
  Alcotest.(check int) "uniform volume" 7 (Acg.volume acg 2 3);
  let sub = D.of_edges [ (1, 2); (3, 4) ] in
  let r = Acg.restrict acg sub in
  Alcotest.(check int) "restricted flows" 2 (Acg.num_flows r);
  Alcotest.(check int) "attrs preserved" 7 (Acg.volume r 1 2);
  Alcotest.check_raises "restrict beyond acg"
    (Invalid_argument "Acg.restrict: 1->9 not in the ACG") (fun () ->
      ignore (Acg.restrict acg (D.of_edges [ (1, 9) ])))

let test_acg_of_tgff () =
  let rng = Prng.create ~seed:21 in
  let tg = Noc_tgff.Tgff.generate ~rng Noc_tgff.Tgff.default_params in
  let acg = Acg.of_tgff tg in
  Alcotest.(check int) "cores" (D.num_vertices tg.Noc_tgff.Tgff.graph) (Acg.num_cores acg);
  (* every edge has its generated volume *)
  D.iter_edges
    (fun u v ->
      Alcotest.(check bool) "volume positive" true (Acg.volume acg u v > 0))
    (Acg.graph acg)

(* -------------------------------------------------------------------- *)
(* Cost                                                                  *)

let test_min_link_ratio () =
  (* MGG4: 4 links / 12 covered edges = 1/3, the library minimum *)
  let r = Cost.min_link_ratio_of_library (lib ()) in
  Alcotest.(check (float 1e-9)) "ratio" (1.0 /. 3.0) r

let test_remainder_cost_edge_count () =
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 (G.loop 5) in
  Alcotest.(check (float 1e-9)) "edges" 5.0
    (Cost.remainder_cost edge_count acg (Acg.graph acg))

let test_lower_bound_admissible () =
  (* the lower bound must never exceed the true optimal cost *)
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 (G.complete 4) in
  let root = Noc_graph.Compact.(view (freeze (Acg.graph acg))) in
  let lb = Cost.lower_bound_view edge_count acg ~min_link_ratio:(1.0 /. 3.0) root in
  let _, stats = Bb.decompose ~library:(lib ()) acg in
  Alcotest.(check bool) "admissible" true (lb <= stats.Bb.best_cost +. 1e-9);
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp = Noc_energy.Floorplan.(grid (uniform_cores ~n:4 ~size_mm:2.0)) in
  let options = { (Bb.energy_options ~tech ~fp) with constraints = None } in
  let lb = Cost.lower_bound_view options.Bb.cost acg ~min_link_ratio:(1.0 /. 3.0) root in
  let _, stats = Bb.decompose ~options ~library:(lib ()) acg in
  Alcotest.(check bool) "admissible under energy" true (lb <= stats.Bb.best_cost +. 1e-9)

(* -------------------------------------------------------------------- *)
(* Matching                                                              *)

let find_matching entry target =
  match Noc_graph.Vf2.find_first ~pattern:entry.L.prim.P.repr ~target () with
  | Some m -> Matching.of_vf2 entry m
  | None -> Alcotest.fail "expected a match"

let test_matching_covered_and_impl () =
  let entry = Option.get (L.find_by_name (lib ()) "MGG4") in
  let target = G.complete 4 in
  let m = find_matching entry target in
  Alcotest.(check int) "covers all 12 edges" 12 (List.length m.Matching.covered);
  let impl = Matching.impl_in_acg m in
  Alcotest.(check int) "4 physical links" 4 (D.undirected_edge_count impl)

let test_matching_routes () =
  let entry = Option.get (L.find_by_name (lib ()) "MGG4") in
  let m = find_matching entry (G.complete 4) in
  let routes = Matching.routes m in
  Alcotest.(check int) "route per covered edge" 12 (List.length routes);
  let impl = Matching.impl_in_acg m in
  List.iter
    (fun ((u, v), path) ->
      Alcotest.(check int) "starts" u (List.hd path);
      Alcotest.(check int) "ends" v (List.nth path (List.length path - 1));
      let rec ok = function
        | a :: (b :: _ as rest) ->
            Alcotest.(check bool) "link" true (D.mem_edge impl a b);
            ok rest
        | _ -> ()
      in
      ok path)
    routes

let test_matching_cost_edge_count () =
  let entry = Option.get (L.find_by_name (lib ()) "L4") in
  let m = find_matching entry (G.loop 4) in
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 (G.loop 4) in
  Alcotest.(check (float 1e-9)) "4 links" 4.0 (Matching.cost edge_count acg m)

let test_matching_pp_format () =
  let entry = Option.get (L.find_by_name (lib ()) "MGG4") in
  let m = find_matching entry (G.complete 4) in
  let s = Format.asprintf "%a" Matching.pp m in
  Alcotest.(check bool) "paper format" true
    (String.length s > 0 && String.sub s 0 1 = "1" && contains s "MGG4"
    && contains s "Mapping:")

(* -------------------------------------------------------------------- *)
(* Branch and bound: structural results                                  *)

let decompose ?options ?budget acg = Bb.decompose ?options ?budget ~library:(lib ()) acg

let test_decompose_planted_k4 () =
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 (G.complete 4) in
  let d, stats = decompose acg in
  Alcotest.(check bool) "valid" true (Decomp.is_valid_for acg d);
  Alcotest.(check (float 1e-9)) "cost 4 (one MGG4)" 4.0 stats.Bb.best_cost;
  Alcotest.(check (list (pair string int))) "histogram" [ ("MGG4", 1) ]
    (Decomp.primitive_histogram d);
  Alcotest.(check bool) "empty remainder" true (D.has_no_edges d.Decomp.remainder)

let test_decompose_star () =
  (* a 1-to-3 broadcast pattern: G123 must cover it with 3 links *)
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 (G.star 4) in
  let d, stats = decompose acg in
  Alcotest.(check (float 1e-9)) "cost 3" 3.0 stats.Bb.best_cost;
  Alcotest.(check (list (pair string int))) "one G123" [ ("G123", 1) ]
    (Decomp.primitive_histogram d)

let test_decompose_loop () =
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 (G.loop 6) in
  let d, _ = decompose acg in
  Alcotest.(check bool) "valid" true (Decomp.is_valid_for acg d);
  Alcotest.(check (list (pair string int))) "one L6" [ ("L6", 1) ]
    (Decomp.primitive_histogram d)

let test_decompose_unmatchable () =
  (* two antiparallel edges match nothing in the default library *)
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 (D.of_edges [ (1, 2); (2, 1) ]) in
  let d, stats = decompose acg in
  Alcotest.(check int) "no matchings" 0 (List.length d.Decomp.matchings);
  Alcotest.(check int) "remainder 2 edges" 2 (D.num_edges d.Decomp.remainder);
  Alcotest.(check (float 1e-9)) "cost 2" 2.0 stats.Bb.best_cost

let test_decompose_empty () =
  let acg = Acg.make ~graph:(D.add_vertex D.empty 1) () in
  let d, stats = decompose acg in
  Alcotest.(check bool) "valid" true (Decomp.is_valid_for acg d);
  Alcotest.(check (float 1e-9)) "zero cost" 0.0 stats.Bb.best_cost

let test_decompose_disjoint_planted () =
  (* K4 on 1..4 plus L4 on 5..8: optimal cost 4 + 4 *)
  let g =
    D.union (G.complete 4) (D.map_vertices (fun v -> v + 4) (G.loop 4))
  in
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 g in
  let d, stats = decompose acg in
  Alcotest.(check (float 1e-9)) "cost 8" 8.0 stats.Bb.best_cost;
  Alcotest.(check bool) "valid" true (Decomp.is_valid_for acg d);
  Alcotest.(check (list (pair string int))) "histogram" [ ("L4", 1); ("MGG4", 1) ]
    (Decomp.primitive_histogram d)

let test_decompose_timeout () =
  let rng = Prng.create ~seed:77 in
  let g = G.erdos_renyi ~rng ~n:20 ~p:0.3 in
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 g in
  let budget = Bb.Budget.(default |> with_timeout_s (Some 0.0)) in
  let d, stats = decompose ~budget acg in
  Alcotest.(check bool) "flagged" true stats.Bb.timed_out;
  Alcotest.(check bool) "still valid" true (Decomp.is_valid_for acg d)

let test_decompose_node_budget () =
  let rng = Prng.create ~seed:78 in
  let g = G.erdos_renyi ~rng ~n:16 ~p:0.4 in
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 g in
  (* Branch mode keeps neutral primitives in the tree: big enough to hit
     a 10-node budget *)
  let options = { Bb.default_options with neutrals = Bb.Branch } in
  let _, stats = decompose ~options ~budget:Bb.Budget.(default |> with_max_nodes 10) acg in
  Alcotest.(check bool) "budget hit" true stats.Bb.timed_out;
  Alcotest.(check bool) "nodes bounded" true (stats.Bb.nodes <= 11)

let test_decompose_deterministic () =
  let rng = Prng.create ~seed:5 in
  let g = G.erdos_renyi ~rng ~n:10 ~p:0.25 in
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 g in
  let d1, s1 = decompose acg in
  let d2, s2 = decompose acg in
  Alcotest.(check (float 1e-9)) "same cost" s1.Bb.best_cost s2.Bb.best_cost;
  Alcotest.(check int) "same matchings" (List.length d1.Decomp.matchings)
    (List.length d2.Decomp.matchings)

let test_wider_search_not_worse () =
  let rng = Prng.create ~seed:15 in
  let g = G.planted ~rng ~n:10 ~parts:[ G.complete 4; G.loop 5; G.star 4 ] in
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 g in
  let _, s1 = decompose acg in
  let options = { Bb.default_options with max_matches_per_step = 4 } in
  let _, s4 = decompose ~options acg in
  Alcotest.(check bool) "wider beam is never worse" true
    (s4.Bb.best_cost <= s1.Bb.best_cost +. 1e-9)

(* -------------------------------------------------------------------- *)
(* The AES reproduction (Fig. 6, Section 5.2)                            *)

let aes_acg () = Noc_aes.Distributed.acg ()

let test_aes_decomposition_matches_paper () =
  let acg = aes_acg () in
  let d, stats = decompose acg in
  (* the paper's printed result: COST: 28 *)
  Alcotest.(check (float 1e-9)) "COST: 28" 28.0 stats.Bb.best_cost;
  Alcotest.(check bool) "valid" true (Decomp.is_valid_for acg d);
  (* 4 gossip columns + 2 loops, row 3 remains *)
  Alcotest.(check (list (pair string int))) "histogram" [ ("L4", 2); ("MGG4", 4) ]
    (Decomp.primitive_histogram d);
  Alcotest.(check int) "remainder edges (third row)" 4 (D.num_edges d.Decomp.remainder);
  (* the four MGG4s sit exactly on the state columns *)
  let mgg4_vertex_sets =
    List.filter_map
      (fun m ->
        if (Matching.primitive m).P.name = "MGG4" then
          Some
            (List.sort_uniq compare
               (List.concat_map (fun (u, v) -> [ u; v ]) m.Matching.covered))
        else None)
      d.Decomp.matchings
  in
  Alcotest.(check (list (list int)))
    "columns 1,5,9,13 / 2,6,10,14 / 3,7,11,15 / 4,8,12,16"
    [ [ 1; 5; 9; 13 ]; [ 2; 6; 10; 14 ]; [ 3; 7; 11; 15 ]; [ 4; 8; 12; 16 ] ]
    (List.sort compare mgg4_vertex_sets)

let test_aes_remainder_is_third_row () =
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let expected = D.Edge_set.of_list [ (9, 11); (11, 9); (10, 12); (12, 10) ] in
  Alcotest.(check bool) "row 3 two-cycles" true
    (D.Edge_set.equal expected (D.edge_set d.Decomp.remainder))

let test_aes_listing_format () =
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let s = Format.asprintf "%a" (Decomp.pp_with_cost edge_count acg) d in
  Alcotest.(check bool) "has COST header" true
    (String.length s >= 8 && String.sub s 0 8 = "COST: 28");
  Alcotest.(check bool) "first column mapping" true
    (contains s "Mapping: (1 1), (2 5), (3 9), (4 13)");
  Alcotest.(check bool) "remaining graph line" true (contains s "0: Remaining Graph:")

(* -------------------------------------------------------------------- *)
(* Energy-cost decomposition                                             *)

let energy_setup () =
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp = Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:16 ~size_mm:2.0) in
  (tech, fp)

let test_energy_decomposition_valid () =
  let tech, fp = energy_setup () in
  let acg = aes_acg () in
  let options = { (Bb.energy_options ~tech ~fp) with constraints = None } in
  let d, stats =
    decompose ~options ~budget:Bb.Budget.(default |> with_max_nodes 2_000) acg
  in
  Alcotest.(check bool) "valid" true (Decomp.is_valid_for acg d);
  Alcotest.(check bool) "finite cost" true (Float.is_finite stats.Bb.best_cost);
  (* the chosen decomposition's energy beats the all-remainder solution
     or equals it (early remainder is allowed) *)
  let all_remainder =
    Cost.remainder_cost (Cost.Energy { tech; fp }) acg (Acg.graph acg)
  in
  Alcotest.(check bool) "no worse than dedicated links" true
    (stats.Bb.best_cost <= all_remainder +. 1e-6)

let test_energy_cost_respects_volume () =
  let tech, fp = energy_setup () in
  let cost = Cost.Energy { tech; fp } in
  let entry = Option.get (L.find_by_name (lib ()) "MGG4") in
  let m = find_matching entry (G.complete 4) in
  let light = Acg.uniform ~volume:1 ~bandwidth:0.0 (G.complete 4) in
  let heavy = Acg.uniform ~volume:100 ~bandwidth:0.0 (G.complete 4) in
  let cl = Matching.cost cost light m and ch = Matching.cost cost heavy m in
  Alcotest.(check (float 1e-6)) "linear in volume" (100.0 *. cl) ch

(* -------------------------------------------------------------------- *)
(* Synthesis                                                             *)

let test_synthesis_custom_structure () =
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let arch = Syn.custom acg d in
  (* 4 MGG4 (4 links) + 2 L4 (4 links) + remainder 4 directed edges = 2
     bidirectional links *)
  Alcotest.(check int) "26 links" 26 (Syn.link_count arch);
  Alcotest.(check bool) "routes valid" true (Syn.routes_valid arch);
  Alcotest.(check int) "max 2 hops (MGG4 diagonals)" 2 (Syn.max_hops arch);
  Alcotest.(check bool) "degree-matched routers" true
    (arch.Syn.uniform_router_ports = None)

let test_synthesis_mesh_structure () =
  let acg = aes_acg () in
  let arch = Syn.mesh ~rows:4 ~cols:4 acg in
  Alcotest.(check int) "24 links" 24 (Syn.link_count arch);
  Alcotest.(check bool) "routes valid" true (Syn.routes_valid arch);
  Alcotest.(check (option int)) "uniform 5-port routers" (Some 5)
    arch.Syn.uniform_router_ports;
  (* XY on a corner-to-corner flow: along row 0 first, then down column 3 *)
  let diag = Acg.uniform ~volume:1 ~bandwidth:0.0 (D.of_edges [ (1, 16) ]) in
  let arch2 = Syn.mesh ~rows:4 ~cols:4 diag in
  match Syn.route arch2 ~src:1 ~dst:16 with
  | Some path -> Alcotest.(check (list int)) "xy path" [ 1; 2; 3; 4; 8; 12; 16 ] path
  | None -> Alcotest.fail "mesh routes its acg flows"

let test_synthesis_mesh_rejects_outside () =
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 (D.of_edges [ (1, 99) ]) in
  Alcotest.check_raises "outside grid"
    (Invalid_argument "Synthesis.mesh: core 99 outside 4x4 grid") (fun () ->
      ignore (Syn.mesh ~rows:4 ~cols:4 acg))

let test_next_hop () =
  let acg = aes_acg () in
  let arch = Syn.mesh ~rows:4 ~cols:4 acg in
  (* flow 1 -> 9 goes down column 0: 1, 5, 9 *)
  Alcotest.(check (option int)) "at source" (Some 5) (Syn.next_hop arch ~node:1 ~src:1 ~dst:9);
  Alcotest.(check (option int)) "midway" (Some 9) (Syn.next_hop arch ~node:5 ~src:1 ~dst:9);
  Alcotest.(check (option int)) "at sink" None (Syn.next_hop arch ~node:9 ~src:1 ~dst:9);
  Alcotest.(check (option int)) "not on route" None (Syn.next_hop arch ~node:2 ~src:1 ~dst:9)

let test_avg_hops_custom_beats_mesh () =
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let custom = Syn.custom acg d in
  let mesh = Syn.mesh ~rows:4 ~cols:4 acg in
  Alcotest.(check bool) "customized has fewer average hops" true
    (Syn.avg_hops acg custom < Syn.avg_hops acg mesh)

let test_total_energy_custom_beats_mesh () =
  let tech, fp = energy_setup () in
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let custom = Syn.custom acg d in
  let mesh = Syn.mesh ~rows:4 ~cols:4 acg in
  Alcotest.(check bool) "Eq. 5 energy lower on customized" true
    (Syn.total_energy ~tech ~fp acg custom < Syn.total_energy ~tech ~fp acg mesh)

let test_link_load () =
  let acg = Acg.of_weighted_edges [ (1, 2, 1, 0.5); (1, 3, 1, 0.25) ] in
  let d, _ = decompose acg in
  let arch = Syn.custom acg d in
  let load = Syn.link_load acg arch in
  (* all flows route somewhere; total load over links = sum of bandwidth x hops *)
  let total = D.Edge_map.fold (fun _ l acc -> acc +. l) load 0.0 in
  Alcotest.(check bool) "positive load" true (total >= 0.75 -. 1e-9)

(* -------------------------------------------------------------------- *)
(* Constraints                                                           *)

let test_constraints_unconstrained () =
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let arch = Syn.custom acg d in
  Alcotest.(check bool) "passes" true (Cons.satisfied Cons.unconstrained acg arch)

let test_constraints_link_overload () =
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let arch = Syn.custom acg d in
  let tight = { Cons.link_bandwidth = 1e-6; max_bisection_links = max_int } in
  let vs = Cons.check tight acg arch in
  Alcotest.(check bool) "overloads reported" true
    (List.exists (function Cons.Link_overload _ -> true | _ -> false) vs)

let test_constraints_bisection () =
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let arch = Syn.custom acg d in
  let tight = { Cons.link_bandwidth = infinity; max_bisection_links = 0 } in
  let vs = Cons.check tight acg arch in
  Alcotest.(check bool) "bisection reported" true
    (List.exists (function Cons.Bisection_exceeded _ -> true | _ -> false) vs)

let test_constraints_of_technology () =
  let c = Cons.of_technology Noc_energy.Technology.cmos_180nm in
  Alcotest.(check (float 1e-9)) "bw" 3.2 c.Cons.link_bandwidth;
  Alcotest.(check int) "bisection" 16 c.Cons.max_bisection_links

let test_infeasible_constraints_fallback () =
  let acg = aes_acg () in
  let impossible = { Cons.link_bandwidth = infinity; max_bisection_links = 0 } in
  (* with no feasible incumbent nothing ever prunes, so bound the search *)
  let options = { Bb.default_options with constraints = Some impossible } in
  let d, stats =
    Bb.decompose ~options
      ~budget:Bb.Budget.(default |> with_max_nodes 300)
      ~library:(lib ()) acg
  in
  Alcotest.(check bool) "flagged unmet" false stats.Bb.constraints_met;
  Alcotest.(check bool) "fallback still valid" true (Decomp.is_valid_for acg d)

(* The heuristic bisection of the AES architecture cuts 6 or 8 links
   depending on its seed, so a budget of 7 exposes any dependence of the
   verdict on how many checks ran before: repeated checks, interleaved
   with checks of another architecture, must agree; the search's verdict
   must not depend on its domain count; and the report of the searched
   decomposition must agree with the search's own verdict. *)
let test_bisection_verdict_is_pure () =
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let arch = Syn.custom acg d and mesh = Syn.mesh ~rows:4 ~cols:4 acg in
  let c = { Cons.link_bandwidth = infinity; max_bisection_links = 7 } in
  let first = Cons.check c acg arch in
  for i = 1 to 8 do
    ignore (Cons.check c acg mesh);
    Alcotest.(check bool) (Printf.sprintf "check %d" i) true (Cons.check c acg arch = first)
  done;
  let options = { Bb.default_options with constraints = Some c } in
  let search domains =
    decompose ~options ~budget:Bb.Budget.(default |> with_domains domains) acg
  in
  let d, stats = search 1 in
  let listing d = Format.asprintf "%a" (Decomp.pp_with_cost edge_count acg) d in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "domains %d" n)
        (listing d)
        (listing (fst (search n))))
    [ 2; 4 ];
  let r = Noc_core.Report.build ~constraints:c ~cost:edge_count ~acg ~decomposition:d ~stats () in
  Alcotest.(check bool) "report agrees with the search" stats.Bb.constraints_met
    (r.Noc_core.Report.violations = [])

(* Every corpus scenario searched under each technology preset's
   constraints, with the edge-count and the energy objective: one digest of
   the listings, costs and verdicts per (preset, objective). *)
let pinned_constrained =
  [
    ("cmos-180nm/edge", "fb872f3f07218e05bc2d80e92ba8d3b0");
    ("cmos-180nm/energy", "dce915e20eba14adec47e6a2dae131c2");
    ("cmos-130nm/edge", "f0e15e0b9c936d7a0c23da91e15c433b");
    ("cmos-130nm/energy", "8e5b19b263359b600ff9690768078fb7");
    ("cmos-100nm/edge", "f0e15e0b9c936d7a0c23da91e15c433b");
    ("cmos-100nm/energy", "648e5ad5c7999d8942f3cd3536766af5");
  ]

let test_constrained_corpus_pinned () =
  let corpus = Noc_benchkit.Corpus.default () in
  let digest tech objective =
    let options acg =
      let fp =
        Noc_energy.Floorplan.(grid (uniform_cores ~n:(Acg.num_cores acg) ~size_mm:2.0))
      in
      match objective with
      | `Edge -> { Bb.default_options with constraints = Some (Cons.of_technology tech) }
      | `Energy -> Bb.energy_options ~tech ~fp
    in
    List.map
      (fun (s : Noc_benchkit.Corpus.scenario) ->
        let acg = s.Noc_benchkit.Corpus.acg in
        let options = options acg in
        let d, st = decompose ~options acg in
        let line =
          Format.asprintf "%s %b %h@.%a" s.Noc_benchkit.Corpus.name st.Bb.constraints_met
            st.Bb.best_cost (Decomp.pp_with_cost options.Bb.cost acg) d
        in
        print_string line;
        line)
      corpus
    |> String.concat "" |> Digest.string |> Digest.to_hex
  in
  let got =
    List.concat_map
      (fun (tech : Noc_energy.Technology.t) ->
        List.map
          (fun (oname, o) ->
            (Printf.sprintf "%s/%s" tech.Noc_energy.Technology.name oname, digest tech o))
          [ ("edge", `Edge); ("energy", `Energy) ])
      Noc_energy.Technology.presets
  in
  List.iter (fun (k, h) -> Printf.printf "    (%S, %S);\n" k h) got;
  List.iter2
    (fun (k, want) (k', h) ->
      Alcotest.(check string) "case name" k k';
      Alcotest.(check string) k want h)
    pinned_constrained got

(* -------------------------------------------------------------------- *)
(* Deadlock                                                              *)

let test_mesh_xy_deadlock_free () =
  (* classic result: dimension-ordered routing on a mesh is deadlock-free *)
  let acg = aes_acg () in
  let arch = Syn.mesh ~rows:4 ~cols:4 acg in
  Alcotest.(check bool) "xy acyclic cdg" true (Dead.is_deadlock_free arch);
  Alcotest.(check int) "1 vc" 1 (Dead.analyze arch).Dead.vcs_needed

let test_custom_deadlock_report () =
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let arch = Syn.custom acg d in
  let report = Dead.analyze arch in
  Alcotest.(check bool) "vcs positive" true (report.Dead.vcs_needed >= 1);
  (* schedule-derived primitive routes plus direct links: CDG is acyclic
     here (verified once, pinned as a regression) *)
  Alcotest.(check bool) "deadlock free" true (report.Dead.cdg_cycle = None)

let test_cdg_edges () =
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let arch = Syn.custom acg d in
  let deps = Dead.channel_dependency_graph arch in
  (* only multi-hop routes (MGG4 diagonals) create dependencies *)
  Alcotest.(check bool) "some dependencies" true (List.length deps > 0);
  List.iter
    (fun ((_, b), (c, _)) ->
      Alcotest.(check int) "channels chain through a shared router" b c)
    deps

let test_vc_of_hop () =
  let acg = aes_acg () in
  let d, _ = decompose acg in
  let arch = Syn.custom acg d in
  (* find a two-hop flow *)
  let two_hop =
    D.Edge_map.fold
      (fun (s, t) path acc -> if List.length path = 3 then Some (s, t) else acc)
      arch.Syn.routes None
  in
  match two_hop with
  | None -> Alcotest.fail "aes custom arch has 2-hop routes"
  | Some (src, dst) ->
      Alcotest.(check (option int)) "hop 0 on vc0" (Some 0)
        (Dead.vc_of_hop arch ~src ~dst ~hop:0);
      Alcotest.(check bool) "hop 1 assigned" true
        (Dead.vc_of_hop arch ~src ~dst ~hop:1 <> None);
      Alcotest.(check (option int)) "hop out of range" None
        (Dead.vc_of_hop arch ~src ~dst ~hop:5)

(* -------------------------------------------------------------------- *)
(* Branching width                                                       *)

(* Under the energy cost a node enumerates up to 16 matches per kept
   representative; past [max_int / 16] that cap must saturate, not wrap,
   so any width that exhausts the enumeration searches the same tree. *)
let test_energy_width_saturates () =
  let tech, fp = energy_setup () in
  let acg = Acg.uniform ~volume:8 ~bandwidth:0.1 (G.complete 6) in
  let run beam =
    let options =
      { (Bb.energy_options ~tech ~fp) with constraints = None; max_matches_per_step = beam }
    in
    let _, st = decompose ~options acg in
    (st.Bb.matches_tried, st.Bb.nodes)
  in
  Alcotest.(check (pair int int)) "width max_int = width 1000" (run 1000) (run max_int)

let test_width_below_one_rejected () =
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 (G.complete 4) in
  List.iter
    (fun beam ->
      let options = { Bb.default_options with max_matches_per_step = beam } in
      Alcotest.check_raises (Printf.sprintf "width %d" beam)
        (Invalid_argument "Branch_bound.decompose: max_matches_per_step must be >= 1")
        (fun () -> ignore (decompose ~options acg)))
    [ 0; -3; min_int ]

(* -------------------------------------------------------------------- *)
(* Co-design (floorplan relaxation)                                      *)

let test_link_volume_weights () =
  let acg = Acg.of_weighted_edges [ (1, 2, 10, 0.1); (2, 3, 5, 0.1) ] in
  let d, _ = decompose acg in
  let arch = Syn.custom acg d in
  let w = Noc_core.Co_design.link_volume_weights acg arch in
  (* remainder direct links: each flow loads exactly its own link *)
  Alcotest.(check (float 1e-9)) "flow 1->2" 10.0
    (Option.value ~default:0.0 (D.Edge_map.find_opt (1, 2) w));
  Alcotest.(check (float 1e-9)) "flow 2->3" 5.0
    (Option.value ~default:0.0 (D.Edge_map.find_opt (2, 3) w))

let test_co_design_improves_or_equals () =
  let acg = aes_acg () in
  let tech = Noc_energy.Technology.cmos_180nm in
  (* a scrambled initial placement: co-design must recover most of it *)
  let rng = Prng.create ~seed:9 in
  let ids = Array.init 16 (fun i -> i + 1) in
  Prng.shuffle rng ids;
  let fp =
    Noc_energy.Floorplan.grid
      (List.init 16 (fun i ->
           { Noc_energy.Floorplan.id = ids.(i); width_mm = 2.0; height_mm = 2.0 }))
  in
  let library = lib () in
  let r =
    Noc_core.Co_design.optimize ~rounds:3 ~anneal_iterations:1500 ~rng ~tech ~library ~fp
      acg
  in
  let first = List.hd r.Noc_core.Co_design.history in
  Alcotest.(check bool) "history non-empty" true
    (List.length r.Noc_core.Co_design.history >= 1);
  Alcotest.(check bool) "energy never worse than round 1" true
    (r.Noc_core.Co_design.energy_pj
    <= first.Noc_core.Co_design.energy_pj +. 1e-6);
  Alcotest.(check bool) "decomposition still valid" true
    (Decomp.is_valid_for acg r.Noc_core.Co_design.decomposition)

let test_co_design_deterministic () =
  let acg = aes_acg () in
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp =
    Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:16 ~size_mm:2.0)
  in
  let library = lib () in
  let run seed =
    let rng = Prng.create ~seed in
    (Noc_core.Co_design.optimize ~rounds:2 ~anneal_iterations:500 ~rng ~tech ~library ~fp
       acg)
      .Noc_core.Co_design.energy_pj
  in
  Alcotest.(check (float 1e-9)) "same seed same result" (run 4) (run 4)

(* -------------------------------------------------------------------- *)
(* ACG serialization                                                     *)

module Io = Noc_core.Acg_io

let parse_exn s =
  match Io.parse s with
  | Ok acg -> acg
  | Error (`Msg m) -> Alcotest.failf "parse failed: %s" m

let test_acg_io_roundtrip () =
  let acg = Acg.of_weighted_edges [ (1, 2, 100, 0.5); (2, 3, 50, 0.25); (7, 1, 8, 1.5) ] in
  let acg' = parse_exn (Io.to_string acg) in
  Alcotest.(check int) "cores" (Acg.num_cores acg) (Acg.num_cores acg');
  Alcotest.(check int) "flows" (Acg.num_flows acg) (Acg.num_flows acg');
  Alcotest.(check int) "volume" 100 (Acg.volume acg' 1 2);
  Alcotest.(check (float 1e-9)) "bandwidth" 0.25 (Acg.bandwidth acg' 2 3)

let test_acg_io_isolated_vertices () =
  let g = D.add_vertex (D.of_edges [ (1, 2) ]) 9 in
  let acg = Acg.uniform ~volume:4 ~bandwidth:0.1 g in
  let acg' = parse_exn (Io.to_string acg) in
  Alcotest.(check int) "isolated vertex kept" 3 (Acg.num_cores acg');
  Alcotest.(check bool) "vertex 9" true (D.mem_vertex (Acg.graph acg') 9)

let test_acg_io_comments_and_blanks () =
  let acg = parse_exn "# a comment

1 2 64 0.5

# another
2 3 32 0.1
" in
  Alcotest.(check int) "two flows" 2 (Acg.num_flows acg)

let check_parse_error name expected input =
  match Io.parse input with
  | Ok _ -> Alcotest.failf "%s: parse unexpectedly succeeded" name
  | Error (`Msg m) -> Alcotest.(check string) name expected m

let test_acg_io_errors () =
  check_parse_error "garbage"
    "line 1, column 1: expected 'src dst volume bandwidth' or 'vertex <id>'"
    "what is this";
  check_parse_error "bad destination" "line 2, column 3: bad destination vertex 'x'"
    "1 2 64 0.5\n1 x 64 0.5";
  check_parse_error "bad bandwidth" "line 1, column 8: bad bandwidth 'fast'"
    "1 2 64 fast";
  check_parse_error "bad vertex" "line 1, column 8: bad vertex id 'abc'" "vertex abc";
  check_parse_error "bad volume" "line 1, column 5: bad volume '64.5'" "1 2 64.5 0.5";
  check_parse_error "bad source" "line 3, column 1: bad source vertex 'one'"
    "1 2 64 0.5\n# fine so far\none 2 64 0.5";
  check_parse_error "missing field"
    "line 1, column 1: expected 'src dst volume bandwidth' or 'vertex <id>'" "1 2 64";
  check_parse_error "extra field"
    "line 1, column 1: expected 'src dst volume bandwidth' or 'vertex <id>'"
    "1 2 64 0.5 extra";
  check_parse_error "bare vertex keyword"
    "line 1, column 1: expected 'src dst volume bandwidth' or 'vertex <id>'" "vertex";
  (* flows connect two distinct cores: a self-loop is a parse error with a
     position, not an Invalid_argument escaping from the graph layer *)
  check_parse_error "self-loop" "line 2, column 1: self-loop 3 -> 3 is not a flow"
    "1 2 64 0.5\n3 3 5 0.5";
  check_parse_error "duplicate edge" "line 3, column 1: duplicate edge 1 -> 2"
    "1 2 64 0.5\n2 3 32 0.1\n1 2 9 0.9"

let test_acg_io_load () =
  let acg = aes_acg () in
  let path = Filename.temp_file "acg_load" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_file ~path acg;
      match Io.load path with
      | Ok acg' -> Alcotest.(check int) "flows" (Acg.num_flows acg) (Acg.num_flows acg')
      | Error (`Msg m) -> Alcotest.failf "load failed: %s" m);
  (match Io.load "/nonexistent/definitely-missing.acg" with
  | Ok _ -> Alcotest.fail "load of a missing file succeeded"
  | Error (`Msg _) -> ());
  let bad = Filename.temp_file "acg_bad" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      let oc = open_out bad in
      output_string oc "1 2 64 0.5\noops\n";
      close_out oc;
      match Io.load bad with
      | Ok _ -> Alcotest.fail "load of malformed file succeeded"
      | Error (`Msg m) ->
          Alcotest.(check bool) "message carries the path" true
            (String.length m > String.length bad
            && String.sub m 0 (String.length bad) = bad);
          Alcotest.(check bool) "message carries line/column" true
            (let rec contains i =
               i + 6 <= String.length m && (String.sub m i 6 = "line 2" || contains (i + 1))
             in
             contains 0))

let test_acg_io_file_roundtrip () =
  let acg = aes_acg () in
  let path = Filename.temp_file "acg" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_file ~path acg;
      let acg' =
        match Io.load path with
        | Ok acg -> acg
        | Error (`Msg m) -> Alcotest.failf "load failed: %s" m
      in
      Alcotest.(check int) "flows" (Acg.num_flows acg) (Acg.num_flows acg');
      Alcotest.(check int) "volume preserved" (Acg.volume acg 1 5) (Acg.volume acg' 1 5))

(* 20 000 flows: each of 200 cores sends to the 100 cores after it (mod
   200), with bandwidths in eighths, which "%g" prints exactly; plus the
   given isolated cores *)
let acg_20k_flows ~isolated =
  let rng = Prng.create ~seed:31 in
  let quads =
    List.concat
      (List.init 200 (fun i ->
           List.init 100 (fun k ->
               ( i + 1,
                 ((i + k + 1) mod 200) + 1,
                 1 + Prng.int rng 4096,
                 float_of_int (Prng.int rng 1000) /. 8. ))))
  in
  let flows = Acg.of_weighted_edges quads in
  Acg.make
    ~graph:(List.fold_left D.add_vertex (Acg.graph flows) isolated)
    ~volume:flows.Acg.volume ~bandwidth:flows.Acg.bandwidth ()

(* Test: a 20 000-flow ACG with isolated cores round-trips through the
   text format to an equal ACG *)
let test_acg_io_20k_roundtrip () =
  let acg = acg_20k_flows ~isolated:[ 201; 250 ] in
  let acg' = parse_exn (Io.to_string acg) in
  Alcotest.(check int) "flows" 20_000 (Acg.num_flows acg');
  Alcotest.(check bool) "same graph, isolated cores included" true
    (D.equal (Acg.graph acg) (Acg.graph acg'));
  D.iter_edges
    (fun u v ->
      if
        Acg.volume acg u v <> Acg.volume acg' u v
        || not (Float.equal (Acg.bandwidth acg u v) (Acg.bandwidth acg' u v))
      then Alcotest.failf "attributes of %d -> %d differ" u v)
    (Acg.graph acg)

(* Test: a duplicate 20 000 lines after its first occurrence is reported
   where it repeats *)
let test_acg_io_late_duplicate () =
  match String.split_on_char '\n' (Io.to_string (acg_20k_flows ~isolated:[])) with
  | header :: (first :: _ as flows) ->
      (* line 1 the header, lines 2 .. 20 000 the first 19 999 flows, line
         20 001 the first flow again *)
      let text =
        String.concat "\n" ((header :: List.filteri (fun i _ -> i < 19_999) flows) @ [ first ])
      in
      let u, v = Scanf.sscanf first "%d %d" (fun u v -> (u, v)) in
      check_parse_error "late duplicate"
        (Printf.sprintf "line 20001, column 1: duplicate edge %d -> %d" u v)
        text
  | _ -> Alcotest.fail "empty listing"

(* -------------------------------------------------------------------- *)
(* Report                                                                *)

let test_report_contents () =
  let acg = aes_acg () in
  let d, stats = decompose acg in
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp =
    Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:16 ~size_mm:2.0)
  in
  let r =
    Noc_core.Report.build ~tech ~fp
      ~constraints:(Noc_core.Constraints.of_technology tech)
      ~cost:Cost.Edge_count ~acg ~decomposition:d ~stats ()
  in
  Alcotest.(check int) "cores" 16 r.Noc_core.Report.acg_cores;
  Alcotest.(check int) "links" 26 r.Noc_core.Report.links;
  Alcotest.(check bool) "deadlock free" true r.Noc_core.Report.deadlock_free;
  Alcotest.(check bool) "energy present" true (r.Noc_core.Report.energy_pj <> None);
  let text = Noc_core.Report.to_string r in
  Alcotest.(check bool) "has listing" true (contains text "COST: 28");
  Alcotest.(check bool) "has primitives" true (contains text "MGG4");
  Alcotest.(check bool) "has search line" true (contains text "search:")

let test_report_without_optionals () =
  let acg = Acg.of_weighted_edges [ (1, 2, 1, 0.1) ] in
  let d, stats = decompose acg in
  let r = Noc_core.Report.build ~cost:Cost.Edge_count ~acg ~decomposition:d ~stats () in
  Alcotest.(check bool) "no energy" true (r.Noc_core.Report.energy_pj = None);
  Alcotest.(check (list string)) "no violations" [] r.Noc_core.Report.violations;
  Alcotest.(check bool) "renders" true (String.length (Noc_core.Report.to_string r) > 0)

(* -------------------------------------------------------------------- *)
(* Golden listing: the paper's Fig. 5 benchmark, reconstructed exactly   *)

let fig5_acg () =
  let gossip vs g =
    List.fold_left
      (fun g u ->
        List.fold_left (fun g v -> if u <> v then D.add_edge g u v else g) g vs)
      g vs
  in
  let star root leaves g = List.fold_left (fun g v -> D.add_edge g root v) g leaves in
  let g =
    D.empty
    |> gossip [ 1; 2; 5; 6 ]
    |> star 3 [ 2; 5; 6 ]
    |> star 7 [ 3; 5; 6 ]
    |> star 8 [ 1; 3; 6; 7 ]
    |> star 4 [ 5; 6; 7 ]
  in
  Acg.uniform ~volume:32 ~bandwidth:0.1 g

let test_fig5_golden_listing () =
  let acg = fig5_acg () in
  let d, _ = decompose acg in
  let listing = Format.asprintf "%a" (Decomp.pp_with_cost edge_count acg) d in
  let golden =
    "COST: 17\n\
     1: MGG4,\tMapping: (1 1), (2 2), (3 5), (4 6)\n\
    \  2: G124,\tMapping: (1 8), (2 1), (3 3), (4 6), (5 7)\n\
    \    3: G123,\tMapping: (1 3), (2 2), (3 5), (4 6)\n\
    \      3: G123,\tMapping: (1 4), (2 5), (3 6), (4 7)\n\
    \        3: G123,\tMapping: (1 7), (2 3), (3 5), (4 6)\n\
    \          0: Remaining Graph: (empty)\n"
  in
  Alcotest.(check string) "byte-identical listing" golden listing

(* -------------------------------------------------------------------- *)
(* Mapping (the third design-space dimension)                            *)

module Map_ = Noc_core.Mapping

let test_mapping_identity_apply () =
  let acg = aes_acg () in
  let m = Map_.identity acg in
  let acg' = Map_.apply m acg in
  Alcotest.(check int) "same flows" (Acg.num_flows acg) (Acg.num_flows acg');
  Alcotest.(check int) "same volume" (Acg.volume acg 1 5) (Acg.volume acg' 1 5)

let test_mapping_apply_relabels () =
  let acg = Acg.of_weighted_edges [ (1, 2, 10, 0.5) ] in
  let m = D.Vmap.of_seq (List.to_seq [ (1, 7); (2, 3) ]) in
  let acg' = Map_.apply m acg in
  Alcotest.(check int) "edge moved" 10 (Acg.volume acg' 7 3);
  Alcotest.(check int) "old edge gone" 0 (Acg.volume acg' 1 2);
  Alcotest.(check (float 1e-9)) "bandwidth follows" 0.5 (Acg.bandwidth acg' 7 3)

let test_mapping_optimize_improves () =
  (* two chatty cores initially placed at opposite mesh corners *)
  let acg = Acg.of_weighted_edges [ (1, 16, 1000, 1.0); (16, 1, 1000, 1.0) ] in
  let rng = Prng.create ~seed:3 in
  let m = Map_.optimize_mesh ~rng ~rows:4 ~cols:4 acg in
  let before = Map_.mesh_hop_cost ~rows:4 ~cols:4 acg (Map_.identity acg) in
  let after = Map_.mesh_hop_cost ~rows:4 ~cols:4 acg m in
  Alcotest.(check bool) "improved" true (after < before);
  (* optimum: adjacent tiles, one hop each way = 2000 *)
  Alcotest.(check (float 1e-9)) "optimal" 2000.0 after

let test_mapping_optimized_mesh_still_works () =
  (* remapping the AES cores and simulating on the mesh must still work *)
  let acg = aes_acg () in
  let rng = Prng.create ~seed:8 in
  let m = Map_.optimize_mesh ~rng ~iterations:2000 ~rows:4 ~cols:4 acg in
  let acg' = Map_.apply m acg in
  let mesh = Syn.mesh ~rows:4 ~cols:4 acg' in
  Alcotest.(check bool) "routes valid" true (Syn.routes_valid mesh);
  let before = Map_.mesh_hop_cost ~rows:4 ~cols:4 acg (Map_.identity acg) in
  let after = Map_.mesh_hop_cost ~rows:4 ~cols:4 acg m in
  Alcotest.(check bool) "no worse" true (after <= before)

let test_mapping_too_many_cores () =
  let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 (G.complete 5) in
  Alcotest.check_raises "5 cores, 4 tiles"
    (Invalid_argument "Mapping.optimize_mesh: more cores than tiles") (fun () ->
      ignore (Map_.optimize_mesh ~rng:(Prng.create ~seed:1) ~rows:2 ~cols:2 acg))

(* -------------------------------------------------------------------- *)
(* Library design exploration (Section 3's open question)                *)

module Ld = Noc_core.Library_design

let test_library_evaluate () =
  let corpus = [ Acg.uniform ~volume:1 ~bandwidth:0.0 (G.complete 4) ] in
  let o_full = Ld.evaluate ~library:(lib ()) corpus in
  Alcotest.(check (float 1e-9)) "K4 costs 4" 4.0 o_full.Ld.total_cost;
  Alcotest.(check int) "no remainder" 0 o_full.Ld.total_remainder;
  let o_empty = Ld.evaluate ~library:(L.make []) corpus in
  Alcotest.(check (float 1e-9)) "empty library = dedicated links" 12.0
    o_empty.Ld.total_cost

let test_library_better () =
  let mk c r = { Ld.total_cost = c; total_remainder = r; elapsed_s = 0. } in
  Alcotest.(check bool) "lower cost wins" true (Ld.better (mk 4. 9) (mk 12. 0));
  Alcotest.(check bool) "tie broken by remainder" true (Ld.better (mk 4. 0) (mk 4. 3));
  Alcotest.(check bool) "worse both" false (Ld.better (mk 5. 3) (mk 4. 0))

let test_library_greedy_select () =
  (* a corpus with one gossip group and one broadcast: the selection must
     pick MGG4 (cost saver) first, then a star-structuring primitive *)
  let corpus =
    [
      Acg.uniform ~volume:1 ~bandwidth:0.0 (G.complete 4);
      Acg.uniform ~volume:1 ~bandwidth:0.0 (G.star 4);
    ]
  in
  let pool =
    [
      Noc_primitives.Primitive.gossip 4;
      Noc_primitives.Primitive.broadcast 4;
      Noc_primitives.Primitive.loop 5;
    ]
  in
  let selected, obj = Ld.greedy_select ~pool ~corpus () in
  let names = L.names selected in
  Alcotest.(check bool) "picks MGG4" true (List.mem "MGG4" names);
  Alcotest.(check bool) "picks G123" true (List.mem "G123" names);
  Alcotest.(check bool) "skips the useless loop" false (List.mem "L5" names);
  Alcotest.(check (float 1e-9)) "cost 4 + 3" 7.0 obj.Ld.total_cost;
  Alcotest.(check int) "fully structured" 0 obj.Ld.total_remainder;
  (* the first pick is the cost saver *)
  Alcotest.(check string) "gossip first" "MGG4" (List.hd names)

(* -------------------------------------------------------------------- *)
(* Remaining corners                                                     *)

let test_violation_printers () =
  let s1 =
    Format.asprintf "%a" Cons.pp_violation
      (Cons.Link_overload { link = (1, 2); demand = 5.0; capacity = 3.2 })
  in
  Alcotest.(check bool) "overload text" true (contains s1 "link 1-2 overloaded");
  let s2 =
    Format.asprintf "%a" Cons.pp_violation (Cons.Bisection_exceeded { links = 9; budget = 4 })
  in
  Alcotest.(check bool) "bisection text" true (contains s2 "bisection needs 9")

let test_energy_listing_format () =
  (* non-integer costs print with two decimals *)
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp =
    Noc_energy.Floorplan.grid (Noc_energy.Floorplan.uniform_cores ~n:4 ~size_mm:2.0)
  in
  let cost = Cost.Energy { tech; fp } in
  let acg = Acg.uniform ~volume:3 ~bandwidth:0.1 (G.complete 4) in
  let options = { Bb.default_options with cost } in
  let d, _ = decompose ~options acg in
  let s = Format.asprintf "%a" (Decomp.pp_with_cost cost acg) d in
  Alcotest.(check bool) "has COST header" true (String.sub s 0 5 = "COST:");
  Alcotest.(check bool) "decimal cost" true (contains s ".")

let test_acg_pp () =
  let acg = Acg.of_weighted_edges [ (1, 2, 10, 0.5) ] in
  let s = Format.asprintf "%a" Acg.pp acg in
  Alcotest.(check bool) "mentions cores" true (contains s "2 cores");
  Alcotest.(check bool) "mentions flow" true (contains s "1 -> 2")

(* Unconstrained searches: one digest per search configuration over every
   input's name, exact cost, search counters and listing.  The inputs are
   the corpus, fuzz-generator ACGs and planted graphs holding two gossip
   cliques with random volumes, where the energy cost's role choice
   matters.  To regenerate after an intended change, empty the table and
   copy the printed lines from the test's output log. *)
let pinned_unconstrained =
  [
    ("default", "0336478a648307bab0e0d3e08d4e1baa");
    ("extended", "59805079525a0bfdbab9b512626248c8");
    ("beam-4", "cf9201621e05966d2cedf88f986fbf9b");
    ("energy", "0f6584338f0607014ffa32fee6434291");
    ("energy-beam-3", "a11a8ab49e2e3c0ecce76e9809cf6c54");
    ("branch", "75736b046f1b6a9e5f9fab32f52f1704");
    ("fallback", "70b43cf17a76f5f9ea5c4e0e5a20699b");
  ]

let pin_inputs () =
  let corpus =
    List.map
      (fun (s : Noc_benchkit.Corpus.scenario) ->
        (s.Noc_benchkit.Corpus.name, s.Noc_benchkit.Corpus.acg))
      (Noc_benchkit.Corpus.default ())
  in
  let fuzz =
    List.init 20 (fun i ->
        ( Printf.sprintf "fuzz-%d" i,
          Noc_oracle.Fuzz.gen_acg ~rng:(Prng.create ~seed:(9100 + i)) ))
  in
  let planted =
    List.init 12 (fun i ->
        let rng = Prng.create ~seed:(9200 + i) in
        let second = G.complete (if i mod 2 = 0 then 4 else 5) in
        let g = G.planted ~rng ~n:(8 + (i mod 4)) ~parts:[ G.complete 4; second ] in
        let flows =
          List.map (fun (u, v) -> (u, v, Prng.int_in rng 1 256, 0.1)) (D.edges g)
        in
        (Printf.sprintf "planted-%d" i, Acg.of_weighted_edges flows))
  in
  corpus @ fuzz @ planted

let test_unconstrained_searches_pinned () =
  let tech = Noc_energy.Technology.cmos_180nm in
  let energy beam acg =
    let n = D.fold_vertices max (Acg.graph acg) 1 in
    let fp = Noc_energy.Floorplan.(grid (uniform_cores ~n ~size_mm:2.0)) in
    { (Bb.energy_options ~tech ~fp) with constraints = None; max_matches_per_step = beam }
  in
  let nodes n = Bb.Budget.(default |> with_max_nodes n) in
  let configs =
    [
      ("default", lib (), Fun.const Bb.default_options, Bb.Budget.default);
      ("extended", L.extended (), Fun.const Bb.default_options, Bb.Budget.default);
      ( "beam-4",
        lib (),
        Fun.const { Bb.default_options with max_matches_per_step = 4 },
        Bb.Budget.default );
      ("energy", lib (), energy 1, Bb.Budget.default);
      ("energy-beam-3", lib (), energy 3, Bb.Budget.default);
      ( "branch",
        lib (),
        Fun.const { Bb.default_options with neutrals = Bb.Branch },
        nodes 5_000 );
      ("fallback", lib (), Fun.const { Bb.default_options with fallback = true }, nodes 1);
    ]
  in
  let inputs = pin_inputs () in
  let got =
    List.map
      (fun (cname, library, options, budget) ->
        let lines =
          List.map
            (fun (name, acg) ->
              let options = options acg in
              let d, st = Bb.decompose ~options ~budget ~library acg in
              Format.asprintf "%s %h %d %d %d@.%a" name st.Bb.best_cost st.Bb.nodes
                st.Bb.pruned st.Bb.leaves (Decomp.pp_with_cost options.Bb.cost acg) d)
            inputs
        in
        (cname, Digest.to_hex (Digest.string (String.concat "" lines))))
      configs
  in
  List.iter (fun (k, h) -> Printf.printf "    (%S, %S);\n" k h) got;
  Alcotest.(check (list (pair string string))) "digests" pinned_unconstrained got

(* Searches shaped like the service's cold misses: benchmark-corpus
   clustered, layered and random graphs, each on its canonical form as the
   daemon searches it, under a 20k-node budget.  Clustered searches are
   chains of gossip branches, each node's leaf completed by the greedy
   pass; the extended library adds savers so some children branch away
   from the pass, and zero switch energy makes a primitive's cost verdict
   depend on its vertex roles.  To regenerate after an intended change,
   empty the table and copy the printed lines from the test's output log. *)
let pinned_synth_cold =
  [
    ("default", "2ab4f7e6a910602943c6cd7082559fe9");
    ("extended", "2709158d31db5df00139229cc314d136");
    ("energy", "53e6c481e8b80b675e1dab68f6379943");
    ("energy-no-switch", "8fe7e3be00d70125d506df40421d66c3");
    ("domains-2", "b5b6e3e47413f88c9853f91ae63d5d02");
    ("fallback", "716437d59c43429d7cae8e800763133e");
  ]

let test_synth_cold_searches_pinned () =
  let canonical acg =
    match Acg.canonical_form acg with Some (c, _) -> c | None -> acg
  in
  let module Cp = Noc_benchkit.Corpus in
  let gen name f ~seed ~n = (Printf.sprintf "%s-%d-s%d" name n seed, canonical (f ~seed ~n)) in
  let clustered ~seed ~n = gen "clustered" Cp.clustered ~seed ~n in
  let chains =
    List.concat_map
      (fun (n, seeds) -> List.init seeds (fun i -> clustered ~seed:(i + 1) ~n))
      [ (32, 5); (48, 4); (64, 2); (96, 1) ]
  in
  let sparse =
    List.concat_map
      (fun n -> [ gen "layered" Cp.layered ~seed:1 ~n; gen "random" Cp.random ~seed:1 ~n ])
      [ 64; 128 ]
  in
  let few = [ clustered ~seed:1 ~n:32; clustered ~seed:2 ~n:32; clustered ~seed:1 ~n:48 ] in
  let energy tech acg =
    let fp = Acg.grid_floorplan acg in
    { (Bb.energy_options ~tech ~fp) with constraints = None }
  in
  let cmos = Noc_energy.Technology.cmos_180nm in
  let no_switch = { cmos with Noc_energy.Technology.es_bit = 0.; e_repeater = 0. } in
  let nodes n = Bb.Budget.(default |> with_max_nodes n) in
  let budget = nodes 20_000 in
  let full name st d =
    Format.asprintf "%s %h %d %d %d %b@.%a" name st.Bb.best_cost st.Bb.nodes st.Bb.pruned
      st.Bb.leaves st.Bb.timed_out Decomp.pp d
  in
  let configs =
    [
      ("default", lib (), Fun.const Bb.default_options, budget, chains @ sparse, full);
      ("extended", L.extended (), Fun.const Bb.default_options, budget, few, full);
      ("energy", lib (), energy cmos, budget, few @ sparse, full);
      ("energy-no-switch", lib (), energy no_switch, budget, few @ sparse, full);
      ( "domains-2",
        lib (),
        Fun.const Bb.default_options,
        Bb.Budget.with_domains 2 budget,
        [ clustered ~seed:1 ~n:48 ],
        fun name st d -> Format.asprintf "%s %h@.%a" name st.Bb.best_cost Decomp.pp d );
      ( "fallback",
        lib (),
        Fun.const { Bb.default_options with fallback = true },
        nodes 1,
        chains @ sparse,
        full );
    ]
  in
  let got =
    List.map
      (fun (cname, library, options, budget, inputs, line) ->
        let lines =
          List.map
            (fun (name, acg) ->
              let d, st = Bb.decompose ~options:(options acg) ~budget ~library acg in
              line name st d)
            inputs
        in
        (cname, Digest.to_hex (Digest.string (String.concat "" lines))))
      configs
  in
  List.iter (fun (k, h) -> Printf.printf "    (%S, %S);\n" k h) got;
  Alcotest.(check (list (pair string string))) "digests" pinned_synth_cold got

(* -------------------------------------------------------------------- *)
(* Properties                                                            *)

(* Section 4.3: "the maximum number of hops between any two nodes in the
   customized architecture will be bounded by the largest diameter in the
   communication library" (plus direct remainder links, which are 1 hop). *)
let qcheck_hop_bound =
  QCheck.Test.make ~name:"max hops bounded by the library's largest diameter" ~count:25
    QCheck.(pair small_int (int_range 6 12))
    (fun (seed, n) ->
      let rng = Prng.create ~seed:(seed + 2500) in
      let g = G.erdos_renyi ~rng ~n ~p:0.3 in
      let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 g in
      let d, _ = Bb.decompose ~library:(lib ()) acg in
      let arch = Syn.custom acg d in
      Syn.max_hops arch <= max 1 (Noc_primitives.Library.max_diameter (lib ())))

let qcheck_decomposition_always_valid =
  QCheck.Test.make ~name:"decomposition partitions the ACG edges" ~count:25
    QCheck.(pair small_int (int_range 6 12))
    (fun (seed, n) ->
      let rng = Prng.create ~seed:(seed + 500) in
      let g = G.erdos_renyi ~rng ~n ~p:0.25 in
      let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 g in
      let d, _ = Bb.decompose ~library:(lib ()) acg in
      Decomp.is_valid_for acg d)

let qcheck_synthesis_routes_valid =
  QCheck.Test.make ~name:"synthesized routes always follow physical links" ~count:25
    QCheck.(pair small_int (int_range 6 12))
    (fun (seed, n) ->
      let rng = Prng.create ~seed:(seed + 900) in
      let g = G.erdos_renyi ~rng ~n ~p:0.25 in
      let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 g in
      let d, _ = Bb.decompose ~library:(lib ()) acg in
      Syn.routes_valid (Syn.custom acg d))

let qcheck_cost_never_exceeds_all_remainder =
  QCheck.Test.make
    ~name:"optimal cost never exceeds the dedicated-link (all-remainder) cost" ~count:25
    QCheck.(pair small_int (int_range 5 10))
    (fun (seed, n) ->
      let rng = Prng.create ~seed:(seed + 1300) in
      let g = G.erdos_renyi ~rng ~n ~p:0.3 in
      let acg = Acg.uniform ~volume:1 ~bandwidth:0.0 g in
      let _, stats = Bb.decompose ~library:(lib ()) acg in
      stats.Bb.best_cost <= float_of_int (D.num_edges g) +. 1e-9)

(* -------------------------------------------------------------------- *)
(* Parallel decomposition: domains > 1 must reproduce the sequential      *)
(* search bit for bit (deterministic constraint checks)                   *)

(* the bench's reconstruction of the paper's Fig. 2 input: K4 on {1..4},
   a 4-loop on {5..8}, 8 stray edges *)
let fig2_acg () =
  let g = G.complete 4 in
  let g =
    List.fold_left (fun g (u, v) -> D.add_edge g u v) g
      [ (5, 6); (6, 7); (7, 8); (8, 5) ]
  in
  let g =
    List.fold_left (fun g (u, v) -> D.add_edge g u v) g
      [ (1, 5); (5, 1); (2, 6); (6, 2); (3, 7); (7, 3); (4, 8); (8, 4) ]
  in
  Acg.uniform ~volume:16 ~bandwidth:0.1 g

let render_decomp acg d = Format.asprintf "%a" (Decomp.pp_with_cost edge_count acg) d

(* The determinism guarantee is scoped to completed searches: when the
   node budget is exhausted mid-run, which subtrees were visited before
   the shared counter ran out depends on worker scheduling, so the
   anytime incumbent of an exhausted parallel search may legally differ
   from the sequential one.  For those cases we only require a valid,
   feasibility-equivalent answer. *)
let check_parallel_equals_sequential ?options acg =
  let d1, s1 = Bb.decompose ?options ~library:(lib ()) acg in
  let d4, s4 =
    Bb.decompose ?options ~budget:Bb.Budget.(default |> with_domains 4) ~library:(lib ()) acg
  in
  if s1.Bb.timed_out || s4.Bb.timed_out then
    Decomp.is_valid_for acg d4
    && s1.Bb.constraints_met = s4.Bb.constraints_met
    && s4.Bb.best_cost < infinity
  else
    s1.Bb.best_cost = s4.Bb.best_cost
    && s1.Bb.constraints_met = s4.Bb.constraints_met
    && render_decomp acg d1 = render_decomp acg d4

let test_parallel_fig2 () =
  Alcotest.(check bool) "fig2: 4 domains = sequential" true
    (check_parallel_equals_sequential (fig2_acg ()));
  let d, stats =
    Bb.decompose ~budget:Bb.Budget.(default |> with_domains 4) ~library:(lib ()) (fig2_acg ())
  in
  Alcotest.(check (float 1e-9)) "fig2 cost is the paper's 16" 16.0 stats.Bb.best_cost;
  Alcotest.(check bool) "valid" true (Decomp.is_valid_for (fig2_acg ()) d)

let qcheck_parallel_equals_sequential =
  QCheck.Test.make ~name:"decompose with 4 domains = sequential on random ACGs"
    ~count:20
    QCheck.(pair small_int (int_range 6 14))
    (fun (seed, n) ->
      let rng = Prng.create ~seed:(seed + 3100) in
      let g = G.erdos_renyi ~rng ~n ~p:(3.0 /. float_of_int (n - 1)) in
      let acg = Acg.uniform ~volume:8 ~bandwidth:0.05 g in
      check_parallel_equals_sequential acg)

let qcheck_parallel_equals_sequential_beam =
  QCheck.Test.make
    ~name:"decompose with 4 domains = sequential (beam 2, literal branching)" ~count:8
    QCheck.(pair small_int (int_range 5 9))
    (fun (seed, n) ->
      let rng = Prng.create ~seed:(seed + 6400) in
      let g = G.erdos_renyi ~rng ~n ~p:0.35 in
      let acg = Acg.uniform ~volume:4 ~bandwidth:0.02 g in
      let options =
        { Bb.default_options with max_matches_per_step = 2; neutrals = Bb.Branch }
      in
      check_parallel_equals_sequential ~options acg)

let suite =
  ( "core",
    [
      Alcotest.test_case "acg basics" `Quick test_acg_basics;
      Alcotest.test_case "acg defaults" `Quick test_acg_defaults;
      Alcotest.test_case "acg rejects attrs on non-edges" `Quick test_acg_rejects_bad_keys;
      Alcotest.test_case "acg uniform and restrict" `Quick test_acg_uniform_and_restrict;
      Alcotest.test_case "acg from tgff" `Quick test_acg_of_tgff;
      Alcotest.test_case "library min link ratio" `Quick test_min_link_ratio;
      Alcotest.test_case "remainder cost (edge count)" `Quick test_remainder_cost_edge_count;
      Alcotest.test_case "lower bound admissible" `Quick test_lower_bound_admissible;
      Alcotest.test_case "matching covered edges and links" `Quick test_matching_covered_and_impl;
      Alcotest.test_case "matching routes" `Quick test_matching_routes;
      Alcotest.test_case "matching cost (edge count)" `Quick test_matching_cost_edge_count;
      Alcotest.test_case "matching paper output format" `Quick test_matching_pp_format;
      Alcotest.test_case "decompose K4" `Quick test_decompose_planted_k4;
      Alcotest.test_case "decompose star" `Quick test_decompose_star;
      Alcotest.test_case "decompose loop" `Quick test_decompose_loop;
      Alcotest.test_case "decompose unmatchable" `Quick test_decompose_unmatchable;
      Alcotest.test_case "decompose empty" `Quick test_decompose_empty;
      Alcotest.test_case "decompose disjoint planted" `Quick test_decompose_disjoint_planted;
      Alcotest.test_case "decompose timeout" `Quick test_decompose_timeout;
      Alcotest.test_case "decompose node budget" `Quick test_decompose_node_budget;
      Alcotest.test_case "decompose deterministic" `Quick test_decompose_deterministic;
      Alcotest.test_case "wider beam never worse" `Quick test_wider_search_not_worse;
      Alcotest.test_case "AES: COST 28, 4xMGG4 + 2xL4 (Fig. 6)" `Quick
        test_aes_decomposition_matches_paper;
      Alcotest.test_case "AES: remainder is the third row" `Quick
        test_aes_remainder_is_third_row;
      Alcotest.test_case "AES: listing format" `Quick test_aes_listing_format;
      Alcotest.test_case "energy decomposition valid" `Quick test_energy_decomposition_valid;
      Alcotest.test_case "energy cost linear in volume" `Quick test_energy_cost_respects_volume;
      Alcotest.test_case "synthesis: custom structure" `Quick test_synthesis_custom_structure;
      Alcotest.test_case "synthesis: mesh structure" `Quick test_synthesis_mesh_structure;
      Alcotest.test_case "synthesis: mesh bounds" `Quick test_synthesis_mesh_rejects_outside;
      Alcotest.test_case "routing table next hops" `Quick test_next_hop;
      Alcotest.test_case "custom beats mesh on hops" `Quick test_avg_hops_custom_beats_mesh;
      Alcotest.test_case "custom beats mesh on Eq.5 energy" `Quick
        test_total_energy_custom_beats_mesh;
      Alcotest.test_case "link load aggregation" `Quick test_link_load;
      Alcotest.test_case "constraints: unconstrained" `Quick test_constraints_unconstrained;
      Alcotest.test_case "constraints: link overload" `Quick test_constraints_link_overload;
      Alcotest.test_case "constraints: bisection" `Quick test_constraints_bisection;
      Alcotest.test_case "constraints from technology" `Quick test_constraints_of_technology;
      Alcotest.test_case "infeasible constraints fallback" `Quick
        test_infeasible_constraints_fallback;
      Alcotest.test_case "mesh XY is deadlock free" `Quick test_mesh_xy_deadlock_free;
      Alcotest.test_case "custom arch deadlock report" `Quick test_custom_deadlock_report;
      Alcotest.test_case "cdg edges chain" `Quick test_cdg_edges;
      Alcotest.test_case "vc assignment per hop" `Quick test_vc_of_hop;
      Alcotest.test_case "energy width saturates" `Quick test_energy_width_saturates;
      Alcotest.test_case "width below 1 rejected" `Quick test_width_below_one_rejected;
      Alcotest.test_case "co-design link weights" `Quick test_link_volume_weights;
      Alcotest.test_case "co-design improves energy" `Quick test_co_design_improves_or_equals;
      Alcotest.test_case "co-design deterministic" `Quick test_co_design_deterministic;
      Alcotest.test_case "acg io roundtrip" `Quick test_acg_io_roundtrip;
      Alcotest.test_case "acg io isolated vertices" `Quick test_acg_io_isolated_vertices;
      Alcotest.test_case "acg io comments" `Quick test_acg_io_comments_and_blanks;
      Alcotest.test_case "acg io errors" `Quick test_acg_io_errors;
      Alcotest.test_case "acg io result-typed load" `Quick test_acg_io_load;
      Alcotest.test_case "acg io file roundtrip" `Quick test_acg_io_file_roundtrip;
      Alcotest.test_case "report contents" `Quick test_report_contents;
      Alcotest.test_case "report without optionals" `Quick test_report_without_optionals;
      Alcotest.test_case "Fig. 5 golden listing" `Quick test_fig5_golden_listing;
      Alcotest.test_case "library evaluate" `Quick test_library_evaluate;
      Alcotest.test_case "library objective order" `Quick test_library_better;
      Alcotest.test_case "library greedy selection" `Quick test_library_greedy_select;
      Alcotest.test_case "violation printers" `Quick test_violation_printers;
      Alcotest.test_case "energy listing format" `Quick test_energy_listing_format;
      Alcotest.test_case "acg pretty printer" `Quick test_acg_pp;
      Alcotest.test_case "unconstrained searches are pinned" `Quick
        test_unconstrained_searches_pinned;
      Alcotest.test_case "mapping identity" `Quick test_mapping_identity_apply;
      Alcotest.test_case "mapping relabels attributes" `Quick test_mapping_apply_relabels;
      Alcotest.test_case "mapping optimization improves" `Quick test_mapping_optimize_improves;
      Alcotest.test_case "optimized mapping still simulates" `Quick
        test_mapping_optimized_mesh_still_works;
      Alcotest.test_case "mapping rejects oversubscription" `Quick test_mapping_too_many_cores;
      QCheck_alcotest.to_alcotest qcheck_hop_bound;
      QCheck_alcotest.to_alcotest qcheck_decomposition_always_valid;
      QCheck_alcotest.to_alcotest qcheck_synthesis_routes_valid;
      QCheck_alcotest.to_alcotest qcheck_cost_never_exceeds_all_remainder;
      Alcotest.test_case "parallel decompose: Fig. 2" `Quick test_parallel_fig2;
      QCheck_alcotest.to_alcotest qcheck_parallel_equals_sequential;
      QCheck_alcotest.to_alcotest qcheck_parallel_equals_sequential_beam;
      Alcotest.test_case "bisection verdict is a pure function of the candidate" `Quick
        test_bisection_verdict_is_pure;
      Alcotest.test_case "constrained corpus searches are pinned" `Quick
        test_constrained_corpus_pinned;
      Alcotest.test_case "synth-cold-shaped searches are pinned" `Quick
        test_synth_cold_searches_pinned;
      Alcotest.test_case "acg io 20000 flows round-trip" `Quick test_acg_io_20k_roundtrip;
      Alcotest.test_case "acg io duplicate at line 20001" `Quick test_acg_io_late_duplicate;
    ] )
