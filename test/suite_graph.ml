(* Tests for the noc_graph substrate: digraph algebra, traversals,
   generators and the VF2 matching engine. *)

module D = Noc_graph.Digraph
module T = Noc_graph.Traversal
module G = Noc_graph.Generators
module V = Noc_graph.Vf2
module Prng = Noc_util.Prng

let dg = Alcotest.testable D.pp D.equal

(* -------------------------------------------------------------------- *)
(* Digraph basics                                                        *)

let test_empty () =
  Alcotest.(check bool) "empty" true (D.is_empty D.empty);
  Alcotest.(check int) "no vertices" 0 (D.num_vertices D.empty);
  Alcotest.(check int) "no edges" 0 (D.num_edges D.empty)

let test_add_edge () =
  let g = D.add_edge D.empty 1 2 in
  Alcotest.(check bool) "edge" true (D.mem_edge g 1 2);
  Alcotest.(check bool) "no reverse" false (D.mem_edge g 2 1);
  Alcotest.(check int) "two vertices" 2 (D.num_vertices g);
  Alcotest.(check int) "one edge" 1 (D.num_edges g);
  (* idempotent *)
  let g2 = D.add_edge g 1 2 in
  Alcotest.(check int) "still one edge" 1 (D.num_edges g2)

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_edge: self-loop")
    (fun () -> ignore (D.add_edge D.empty 3 3))

let test_remove_edge () =
  let g = D.of_edges [ (1, 2); (2, 3) ] in
  let g = D.remove_edge g 1 2 in
  Alcotest.(check bool) "gone" false (D.mem_edge g 1 2);
  Alcotest.(check bool) "vertex kept" true (D.mem_vertex g 1);
  Alcotest.(check int) "one left" 1 (D.num_edges g);
  (* removing a missing edge is a no-op *)
  Alcotest.(check dg) "noop" g (D.remove_edge g 1 2)

let test_remove_vertex () =
  let g = D.of_edges [ (1, 2); (2, 3); (3, 1) ] in
  let g = D.remove_vertex g 2 in
  Alcotest.(check bool) "vertex gone" false (D.mem_vertex g 2);
  Alcotest.(check int) "edges pruned" 1 (D.num_edges g);
  Alcotest.(check bool) "3->1 kept" true (D.mem_edge g 3 1)

let test_degrees () =
  let g = D.of_edges [ (1, 2); (1, 3); (2, 1) ] in
  Alcotest.(check int) "out 1" 2 (D.out_degree g 1);
  Alcotest.(check int) "in 1" 1 (D.in_degree g 1);
  Alcotest.(check int) "deg 1" 3 (D.degree g 1);
  Alcotest.(check int) "out unknown" 0 (D.out_degree g 99)

let test_union () =
  let a = D.of_edges [ (1, 2) ] in
  let b = D.of_edges ~vertices:[ 9 ] [ (2, 3) ] in
  let u = D.union a b in
  Alcotest.(check int) "vertices" 4 (D.num_vertices u);
  Alcotest.(check int) "edges" 2 (D.num_edges u);
  Alcotest.(check bool) "isolated kept" true (D.mem_vertex u 9)

let test_diff_edges () =
  (* Definition 2: vertices are preserved, only edges subtracted *)
  let g = D.of_edges [ (1, 2); (2, 3); (3, 1) ] in
  let r = D.diff_edges g [ (1, 2); (3, 1) ] in
  Alcotest.(check int) "vertices kept" 3 (D.num_vertices r);
  Alcotest.(check int) "one edge" 1 (D.num_edges r);
  Alcotest.(check bool) "2->3 kept" true (D.mem_edge r 2 3)

let test_induced () =
  let g = D.of_edges [ (1, 2); (2, 3); (3, 4); (4, 1) ] in
  let s = D.induced g (D.Vset.of_list [ 1; 2; 3 ]) in
  Alcotest.(check int) "vertices" 3 (D.num_vertices s);
  Alcotest.(check int) "edges" 2 (D.num_edges s)

let test_map_vertices () =
  let g = D.of_edges [ (1, 2); (2, 3) ] in
  let h = D.map_vertices (fun v -> v * 10) g in
  Alcotest.(check bool) "10->20" true (D.mem_edge h 10 20);
  Alcotest.check_raises "collision" (Invalid_argument "Digraph.map_vertices: not injective")
    (fun () -> ignore (D.map_vertices (fun _ -> 5) g))

let test_reverse () =
  let g = D.of_edges [ (1, 2); (2, 3) ] in
  let r = D.reverse g in
  Alcotest.(check bool) "2->1" true (D.mem_edge r 2 1);
  Alcotest.(check bool) "not 1->2" false (D.mem_edge r 1 2);
  Alcotest.(check dg) "double reverse" g (D.reverse r)

let test_undirected_counts () =
  let g = D.of_edges [ (1, 2); (2, 1); (2, 3) ] in
  Alcotest.(check int) "unordered pairs" 2 (D.undirected_edge_count g);
  let c = D.undirected_closure g in
  Alcotest.(check int) "closure edges" 4 (D.num_edges c)

(* -------------------------------------------------------------------- *)
(* Traversal                                                             *)

let test_bfs () =
  let g = G.path 5 in
  let d = T.bfs_distances g 1 in
  Alcotest.(check int) "dist to 5" 4 (D.Vmap.find 5 d);
  Alcotest.(check int) "dist to 1" 0 (D.Vmap.find 1 d);
  (* direction matters *)
  let d5 = T.bfs_distances g 5 in
  Alcotest.(check bool) "1 unreachable from 5" false (D.Vmap.mem 1 d5)

let test_shortest_path () =
  let g = G.mesh ~rows:3 ~cols:3 in
  (match T.shortest_path g 1 9 with
  | Some p ->
      Alcotest.(check int) "length" 5 (List.length p);
      Alcotest.(check int) "starts" 1 (List.hd p);
      Alcotest.(check int) "ends" 9 (List.nth p 4)
  | None -> Alcotest.fail "should be reachable");
  let g2 = G.path 3 in
  Alcotest.(check bool) "unreachable" true (T.shortest_path g2 3 1 = None);
  (match T.shortest_path g2 2 2 with
  | Some [ 2 ] -> ()
  | _ -> Alcotest.fail "trivial path")

let test_components () =
  let g = D.union (G.loop 3) (D.map_vertices (fun v -> v + 10) (G.loop 4)) in
  let comps = T.weakly_connected_components g in
  Alcotest.(check int) "two components" 2 (List.length comps);
  Alcotest.(check int) "largest first" 4 (D.Vset.cardinal (List.hd comps));
  Alcotest.(check bool) "not connected" false (T.is_weakly_connected g);
  Alcotest.(check bool) "loop connected" true (T.is_weakly_connected (G.loop 5));
  Alcotest.(check bool) "empty connected" true (T.is_weakly_connected D.empty)

let test_scc () =
  let g = D.of_edges [ (1, 2); (2, 3); (3, 1); (3, 4); (4, 5) ] in
  let sccs = T.strongly_connected_components g in
  let sizes = List.sort compare (List.map D.Vset.cardinal sccs) in
  Alcotest.(check (list int)) "scc sizes" [ 1; 1; 3 ] sizes

let test_topo () =
  let g = D.of_edges [ (1, 2); (1, 3); (2, 4); (3, 4) ] in
  (match T.topological_sort g with
  | Some order ->
      let pos v = Option.get (List.find_index (Int.equal v) order) in
      D.iter_edges (fun u v -> Alcotest.(check bool) "order" true (pos u < pos v)) g
  | None -> Alcotest.fail "dag expected");
  Alcotest.(check bool) "cycle has no topo" true (T.topological_sort (G.loop 3) = None);
  Alcotest.(check bool) "acyclic" true (T.is_acyclic g);
  Alcotest.(check bool) "cyclic" false (T.is_acyclic (G.loop 3))

let test_find_cycle () =
  (match T.find_cycle (G.loop 4) with
  | Some c -> Alcotest.(check int) "cycle length" 4 (List.length c)
  | None -> Alcotest.fail "loop has a cycle");
  Alcotest.(check bool) "dag has none" true (T.find_cycle (G.path 5) = None);
  (* returned cycle is a real edge cycle *)
  let g = D.of_edges [ (1, 2); (2, 3); (3, 2); (3, 4) ] in
  match T.find_cycle g with
  | Some c ->
      let arr = Array.of_list c in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        Alcotest.(check bool) "edge exists" true (D.mem_edge g arr.(i) arr.((i + 1) mod n))
      done
  | None -> Alcotest.fail "2-3 cycle expected"

let test_diameter () =
  Alcotest.(check (option int)) "path diam" (Some 4) (T.diameter (G.path 5));
  Alcotest.(check (option int)) "mesh diam" (Some 4) (T.undirected_diameter (G.mesh ~rows:3 ~cols:3));
  Alcotest.(check (option int)) "single vertex" None (T.diameter (D.add_vertex D.empty 1));
  Alcotest.(check (option int)) "disconnected" None
    (T.undirected_diameter (D.of_edges ~vertices:[ 9 ] [ (1, 2) ]))

let test_bisection () =
  (* two K4s joined by a single bidirectional bridge: optimal bisection cuts
     exactly that one pair *)
  let k4a = G.complete 4 in
  let k4b = D.map_vertices (fun v -> v + 4) (G.complete 4) in
  let g = D.add_edge_pair (D.union k4a k4b) 1 5 in
  let rng = Prng.create ~seed:5 in
  let part, cut = T.min_bisection_cut ~sweeps:10 ~rng g in
  Alcotest.(check int) "balanced" 4 (D.Vset.cardinal part);
  Alcotest.(check int) "cut=1" 1 cut

let test_bisection_deterministic_under_seed () =
  (* Same seed, fresh PRNG: the refinement must land on the identical
     partition and cut.  Guards both the PRNG stream semantics and the
     closure-hoisting rewrite inside min_bisection_cut. *)
  let g = G.erdos_renyi ~rng:(Prng.create ~seed:77) ~n:14 ~p:0.3 in
  let run () =
    let rng = Prng.create ~seed:9 in
    T.min_bisection_cut ~sweeps:8 ~rng g
  in
  let part1, cut1 = run () in
  let part2, cut2 = run () in
  Alcotest.(check int) "same cut" cut1 cut2;
  Alcotest.(check (list int))
    "same partition" (D.Vset.elements part1) (D.Vset.elements part2)

(* -------------------------------------------------------------------- *)
(* Generators                                                            *)

let test_structured_generators () =
  Alcotest.(check int) "path edges" 4 (D.num_edges (G.path 5));
  Alcotest.(check int) "loop edges" 5 (D.num_edges (G.loop 5));
  Alcotest.(check int) "star edges" 5 (D.num_edges (G.star 6));
  Alcotest.(check int) "complete edges" 12 (D.num_edges (G.complete 4));
  Alcotest.(check int) "ring edges" 8 (D.num_edges (G.bidirectional_ring 4));
  Alcotest.(check int) "mesh 3x3 links" 12 (D.undirected_edge_count (G.mesh ~rows:3 ~cols:3));
  Alcotest.(check int) "torus 3x3 links" 18 (D.undirected_edge_count (G.torus ~rows:3 ~cols:3));
  Alcotest.(check int) "hypercube 3 links" 12 (D.undirected_edge_count (G.hypercube 3))

let test_knodel () =
  (* W(2,4) is the 4-cycle: 4 undirected links, all degrees 2 *)
  let k4 = G.knodel 4 in
  Alcotest.(check int) "knodel4 vertices" 4 (D.num_vertices k4);
  Alcotest.(check int) "knodel4 links" 4 (D.undirected_edge_count k4);
  List.iter
    (fun v -> Alcotest.(check int) "degree 2" 2 (D.Vset.cardinal (D.succ k4 v)))
    (D.vertex_list k4);
  (* W(3,8): 12 undirected links, 3-regular *)
  let k8 = G.knodel 8 in
  Alcotest.(check int) "knodel8 links" 12 (D.undirected_edge_count k8);
  List.iter
    (fun v -> Alcotest.(check int) "degree 3" 3 (D.Vset.cardinal (D.succ k8 v)))
    (D.vertex_list k8);
  Alcotest.check_raises "odd rejected" (Invalid_argument "Generators.knodel: need positive even n")
    (fun () -> ignore (G.knodel 5))

let test_random_generators () =
  let rng = Prng.create ~seed:1 in
  let g = G.erdos_renyi ~rng ~n:20 ~p:0.2 in
  Alcotest.(check int) "n vertices" 20 (D.num_vertices g);
  let g0 = G.erdos_renyi ~rng ~n:10 ~p:0.0 in
  Alcotest.(check int) "p=0 no edges" 0 (D.num_edges g0);
  let g1 = G.erdos_renyi ~rng ~n:10 ~p:1.0 in
  Alcotest.(check int) "p=1 complete" 90 (D.num_edges g1);
  let gm = G.gnm ~rng ~n:12 ~m:30 in
  Alcotest.(check int) "exact m" 30 (D.num_edges gm);
  let gm_cap = G.gnm ~rng ~n:4 ~m:100 in
  Alcotest.(check int) "m capped" 12 (D.num_edges gm_cap);
  let dag = G.random_dag ~rng ~n:15 ~p:0.3 in
  Alcotest.(check bool) "dag acyclic" true (T.is_acyclic dag)

let test_generator_determinism () =
  let g1 = G.erdos_renyi ~rng:(Prng.create ~seed:9) ~n:15 ~p:0.3 in
  let g2 = G.erdos_renyi ~rng:(Prng.create ~seed:9) ~n:15 ~p:0.3 in
  Alcotest.(check dg) "same seed same graph" g1 g2

let test_planted () =
  let rng = Prng.create ~seed:4 in
  let g = G.planted ~rng ~n:12 ~parts:[ G.complete 4; G.loop 4 ] in
  Alcotest.(check int) "vertices" 12 (D.num_vertices g);
  (* the planted K4 must be findable *)
  Alcotest.(check bool) "k4 found" true (V.exists ~pattern:(G.complete 4) ~target:g ());
  Alcotest.(check bool) "loop found" true (V.exists ~pattern:(G.loop 4) ~target:g ())

let test_dot () =
  let g = D.of_edges [ (1, 2); (2, 1); (2, 3) ] in
  let s = Noc_graph.Dot.to_dot g in
  Alcotest.(check bool) "digraph" true (String.length s > 0 && String.sub s 0 7 = "digraph");
  let u = Noc_graph.Dot.to_dot ~undirected:true g in
  Alcotest.(check string) "antiparallel edges merged"
    "graph g {\n  1;\n  2;\n  3;\n  1 -- 2;\n  2 -- 3;\n}\n" u;
  (* file output *)
  let path = Filename.temp_file "graph" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Noc_graph.Dot.write_file ~path s;
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      Alcotest.(check int) "file written" (String.length s) len)

(* -------------------------------------------------------------------- *)
(* VF2                                                                   *)

let count_matches pattern target =
  List.length (V.find_all ~pattern ~target ())

let test_vf2_k4_in_k5 () =
  (* K4 -> K5: all 5*4*3*2 injections are monomorphisms *)
  Alcotest.(check int) "monomorphism count" 120 (count_matches (G.complete 4) (G.complete 5));
  (* but only C(5,4)=5 distinct covered edge sets *)
  Alcotest.(check int) "distinct images" 5
    (List.length (V.find_distinct_images ~pattern:(G.complete 4) ~target:(G.complete 5) ()))

let test_vf2_no_match () =
  Alcotest.(check bool) "k4 not in c4" false
    (V.exists ~pattern:(G.complete 4) ~target:(G.knodel 4) ());
  Alcotest.(check bool) "loop5 not in loop4" false
    (V.exists ~pattern:(G.loop 5) ~target:(G.loop 4) ())

let test_vf2_loop_in_mesh () =
  (* a directed 4-cycle exists in a bidirectional mesh (around a unit square) *)
  Alcotest.(check bool) "loop4 in mesh" true
    (V.exists ~pattern:(G.loop 4) ~target:(G.mesh ~rows:2 ~cols:2) ());
  (* a directed 3-cycle does not exist in a bipartite mesh *)
  Alcotest.(check bool) "loop3 not in mesh" false
    (V.exists ~pattern:(G.loop 3) ~target:(G.mesh ~rows:3 ~cols:3) ())

let test_vf2_path_directed () =
  let target = G.path 6 in
  (* directed path of 3 vertices appears 4 times in path of 6 *)
  Alcotest.(check int) "path3 in path6" 4 (count_matches (G.path 3) target)

let test_vf2_star () =
  (* star with 3 leaves in K4: 4 roots * 3! leaf arrangements *)
  Alcotest.(check int) "star count" 24 (count_matches (G.star 4) (G.complete 4))

let test_vf2_all_results_valid () =
  let rng = Prng.create ~seed:31 in
  let target = G.erdos_renyi ~rng ~n:12 ~p:0.3 in
  let pattern = G.loop 4 in
  let ms = V.find_all ~pattern ~target () in
  List.iter
    (fun m ->
      Alcotest.(check bool) "valid monomorphism" true (V.is_monomorphism ~pattern ~target m))
    ms

let test_vf2_max_matches () =
  let ms = V.find_all ~max_matches:7 ~pattern:(G.complete 3) ~target:(G.complete 5) () in
  Alcotest.(check int) "capped" 7 (List.length ms)

let test_vf2_deadline () =
  (* an already-expired deadline must time out quickly and return no match *)
  let deadline = Unix.gettimeofday () -. 1.0 in
  let outcome =
    V.iter ~deadline ~pattern:(G.complete 6) ~target:(G.complete 12) (fun _ -> `Continue)
  in
  Alcotest.(check bool) "timed out" true (outcome = V.Timed_out)

let test_vf2_empty_pattern () =
  Alcotest.(check int) "empty pattern no matches" 0 (count_matches D.empty (G.complete 3))

let test_vf2_edge_image () =
  let pattern = G.path 3 in
  let target = G.path 5 in
  match V.find_first ~pattern ~target () with
  | Some m ->
      let img = V.edge_image ~pattern m in
      Alcotest.(check int) "two edges" 2 (List.length img);
      List.iter
        (fun (u, v) -> Alcotest.(check bool) "edge in target" true (D.mem_edge target u v))
        img
  | None -> Alcotest.fail "path3 must embed in path5"

(* Property: a randomly relabelled subgraph of a random graph always embeds. *)
let qcheck_vf2_planted =
  QCheck.Test.make ~name:"vf2 finds planted subgraphs" ~count:50
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, which) ->
      let rng = Prng.create ~seed:(seed + 1000) in
      let part =
        match which with
        | 0 -> G.complete 3
        | 1 -> G.loop 4
        | 2 -> G.star 4
        | _ -> G.path 4
      in
      let target = G.planted ~rng ~n:10 ~parts:[ part ] in
      V.exists ~pattern:part ~target ())

(* Property: subtracting a found match's edge image strictly decreases the
   edge count by the pattern's edge count. *)
let qcheck_vf2_subtract =
  QCheck.Test.make ~name:"match subtraction removes exactly pattern edges" ~count:50
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed:(seed + 2000) in
      let target = G.planted ~rng ~n:9 ~parts:[ G.loop 4; G.path 3 ] in
      let pattern = G.loop 4 in
      match V.find_first ~pattern ~target () with
      | None -> false
      | Some m ->
          let img = V.edge_image ~pattern m in
          let r = D.diff_edges target img in
          D.num_edges r = D.num_edges target - D.num_edges pattern
          && D.num_vertices r = D.num_vertices target)

(* -------------------------------------------------------------------- *)
(* Multi-pattern screening                                               *)

module MP = Noc_graph.Multi_pattern
module C = Noc_graph.Compact
module L = Noc_primitives.Library
module P = Noc_primitives.Primitive

let library_patterns () =
  [ (1, G.complete 4); (2, G.star 4); (3, G.loop 4); (4, G.path 3) ]

let test_multi_pattern_survivors () =
  let t = MP.compile (library_patterns ()) in
  (* a sparse path: K4 and star-with-degree-3 cannot embed *)
  let target = G.path 5 in
  let surv = MP.survivors_view t (C.view (C.freeze target)) in
  Alcotest.(check (list int)) "K4 and star screened out" [ 3; 4 ] surv;
  (* the loop passes the degree screen (necessary, not sufficient) and is
     only rejected by the full search *)
  Alcotest.(check bool) "loop fails the full search" false
    (V.exists ~pattern:(G.loop 4) ~target ())

(* The search screens deletion overlays, never fresh digraphs: every
   library entry with a match in an overlay must survive its screen. *)
let test_multi_pattern_no_false_negatives () =
  let rng = Prng.create ~seed:61 in
  let matched = ref 0 in
  List.iter
    (fun library ->
      let t = MP.compile (List.map (fun e -> (e.L.id, e.L.prim.P.repr)) library) in
      for _ = 1 to 20 do
        let n = Prng.int_in rng 6 12 in
        let g =
          D.union
            (G.planted ~rng ~n ~parts:[ G.complete 4 ])
            (G.erdos_renyi ~rng ~n ~p:0.3)
        in
        let round v =
          C.delete_edges v (List.filter (fun _ -> Prng.bernoulli rng 0.25) (D.edges g))
        in
        let v0 = C.view (C.freeze g) in
        let v1 = round v0 in
        let v2 = round v1 in
        List.iter
          (fun v ->
            let surv = MP.survivors_view t v in
            let target = C.to_digraph v in
            List.iter
              (fun e ->
                if V.exists ~pattern:e.L.prim.P.repr ~target () then begin
                  incr matched;
                  Alcotest.(check bool)
                    (Printf.sprintf "%s must survive" e.L.prim.P.name)
                    true (List.mem e.L.id surv)
                end)
              library)
          [ v0; v1; v2 ]
      done)
    [ L.default (); L.extended () ];
  Alcotest.(check bool) "some entries match" true (!matched > 0)

let test_multi_pattern_duplicate_id () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Multi_pattern.compile: duplicate id 1") (fun () ->
      ignore (MP.compile [ (1, G.path 2); (1, G.path 3) ]))

(* -------------------------------------------------------------------- *)
(* Compact CSR snapshots and the compact VF2 engine                      *)

module Vm = Noc_graph.Vf2_map

let random_digraph rng ~n ~p =
  (* sparse vertex ids, so dense renumbering is actually exercised *)
  G.erdos_renyi ~rng ~n ~p |> D.map_vertices (fun v -> (v * 3) + 7)

let test_compact_basics () =
  let g = D.of_edges [ (10, 20); (10, 30); (20, 30); (30, 10) ] in
  let c = C.freeze g in
  let v = C.view c in
  Alcotest.(check int) "vertices" 3 (C.num_vertices v);
  Alcotest.(check int) "edges" 4 (C.num_edges v);
  Alcotest.(check bool) "mem" true (C.mem_edge v 10 20);
  Alcotest.(check bool) "absent" false (C.mem_edge v 20 10);
  Alcotest.(check bool) "foreign vertex" false (C.mem_edge v 10 99);
  Alcotest.(check dg) "roundtrip" g (C.to_digraph v);
  let v' = C.delete_edges v [ (10, 20); (30, 10) ] in
  Alcotest.(check int) "edges after delete" 2 (C.num_edges v');
  Alcotest.(check bool) "deleted" false (C.mem_edge v' 10 20);
  Alcotest.(check bool) "survivor" true (C.mem_edge v' 20 30);
  Alcotest.(check dg) "delete = diff_edges" (D.diff_edges g [ (10, 20); (30, 10) ])
    (C.to_digraph v');
  (* the base view is unaffected *)
  Alcotest.(check int) "base intact" 4 (C.num_edges v)

let qcheck_compact_matches_digraph =
  QCheck.Test.make ~name:"compact view agrees with the digraph algebra" ~count:100
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let rng = Prng.create ~seed:(seed + 7100) in
      let g = random_digraph rng ~n ~p:0.3 in
      let v = C.view (C.freeze g) in
      (* delete a pseudo-random half of the edges, in two rounds so the
         overlay merge path is exercised *)
      let doomed = List.filteri (fun i _ -> i mod 2 = 0) (D.edges g) in
      let d1 = List.filteri (fun i _ -> i mod 4 = 0) (D.edges g) in
      let v' = C.delete_edges (C.delete_edges v d1) doomed in
      let g' = D.diff_edges g doomed in
      D.equal (C.to_digraph v) g
      && D.equal (C.to_digraph v') g'
      && C.num_edges v' = D.num_edges g'
      && D.fold_vertices
           (fun u acc ->
             acc
             && D.fold_vertices
                  (fun w acc -> acc && C.mem_edge v' u w = D.mem_edge g' u w)
                  g true)
           g true)

let vmap_bindings m = D.Vmap.bindings m

(* Property: the undirected link count equals the number of distinct
   unordered pairs, on random digraphs that are one-way (every pair only
   from its larger end, so each is counted at its descending edge),
   mixed or symmetric *)
let qcheck_undirected_edge_count =
  QCheck.Test.make ~name:"undirected edge count = distinct unordered pairs" ~count:200
    QCheck.(pair small_int (int_range 1 24))
    (fun (seed, n) ->
      let rng = Prng.create ~seed:(seed + 7300) in
      let g = random_digraph rng ~n ~p:(Prng.float rng 0.6) in
      let g =
        match Prng.int rng 3 with
        | 0 -> D.of_edges (List.map (fun (u, v) -> (max u v, min u v)) (D.edges g))
        | 1 -> g
        | _ -> D.undirected_closure g
      in
      let pairs =
        D.fold_edges (fun u v acc -> D.Edge_set.add (min u v, max u v) acc) g D.Edge_set.empty
      in
      D.undirected_edge_count g = D.Edge_set.cardinal pairs)

let qcheck_vf2_compact_equals_map =
  QCheck.Test.make
    ~name:"compact VF2 enumerates exactly the map-based engine's matches" ~count:60
    QCheck.(triple small_int (int_range 2 8) (int_range 4 16))
    (fun (seed, np, nt) ->
      let rng = Prng.create ~seed:(seed + 4600) in
      let pattern = G.erdos_renyi ~rng ~n:np ~p:0.5 in
      let target = random_digraph rng ~n:nt ~p:0.35 in
      let all_c =
        Noc_graph.Vf2.find_all ~max_matches:200 ~pattern ~target ()
        |> List.map vmap_bindings
      in
      let all_m =
        Vm.find_all ~max_matches:200 ~pattern ~target () |> List.map vmap_bindings
      in
      let img_c =
        Noc_graph.Vf2.find_distinct_images ~max_matches:50 ~pattern ~target ()
        |> List.map (fun m -> Noc_graph.Vf2.edge_image ~pattern m)
      in
      let img_m =
        Vm.find_distinct_images ~max_matches:50 ~pattern ~target ()
        |> List.map (fun m -> Vm.edge_image ~pattern m)
      in
      all_c = all_m && img_c = img_m)

(* -------------------------------------------------------------------- *)
(* Canonical labeling                                                    *)

module Canon = Noc_graph.Canon

(* Test: fft16's labeling runs within 100 refinement passes and returns
   its default-budget rank.  The butterfly has 384 equivalent leaves, which
   the unpruned search walked in 1985 passes; orbit pruning leaves 11.  It
   has one edge-attribute tuple, so the default unlabeled [edge_label] is
   the one the cache key uses. *)
let test_fft16_labels_within_budget () =
  let g = C.freeze (Noc_core.Acg.graph (Noc_apps.Fft.acg ())) in
  match (Canon.canonical_order g, Canon.canonical_order ~max_refines:100 g) with
  | `Canonical rank, `Canonical rank' ->
      Alcotest.(check (array int)) "same rank" rank rank'
  | _ -> Alcotest.fail "fft16 truncated"

(* Test: a search past its budget says so, and callers fall back *)
let test_canon_truncates () =
  let truncated =
    match Canon.canonical_order ~max_refines:1 (C.freeze (G.hypercube 3)) with
    | `Truncated -> true
    | `Canonical _ -> false
  in
  Alcotest.(check bool) "Q3 needs more than one pass" true truncated

let suite =
  ( "graph",
    [
      Alcotest.test_case "empty graph" `Quick test_empty;
      Alcotest.test_case "add edge" `Quick test_add_edge;
      Alcotest.test_case "self loop rejected" `Quick test_self_loop_rejected;
      Alcotest.test_case "remove edge" `Quick test_remove_edge;
      Alcotest.test_case "remove vertex" `Quick test_remove_vertex;
      Alcotest.test_case "degrees" `Quick test_degrees;
      Alcotest.test_case "union (Def 1)" `Quick test_union;
      Alcotest.test_case "diff_edges (Def 2)" `Quick test_diff_edges;
      Alcotest.test_case "induced subgraph" `Quick test_induced;
      Alcotest.test_case "map vertices" `Quick test_map_vertices;
      Alcotest.test_case "reverse" `Quick test_reverse;
      Alcotest.test_case "undirected counts" `Quick test_undirected_counts;
      Alcotest.test_case "bfs distances" `Quick test_bfs;
      Alcotest.test_case "shortest path" `Quick test_shortest_path;
      Alcotest.test_case "weak components" `Quick test_components;
      Alcotest.test_case "strongly connected components" `Quick test_scc;
      Alcotest.test_case "topological sort" `Quick test_topo;
      Alcotest.test_case "find cycle" `Quick test_find_cycle;
      Alcotest.test_case "diameter" `Quick test_diameter;
      Alcotest.test_case "bisection heuristic" `Quick test_bisection;
      Alcotest.test_case "bisection deterministic under seed" `Quick
        test_bisection_deterministic_under_seed;
      Alcotest.test_case "structured generators" `Quick test_structured_generators;
      Alcotest.test_case "knodel graphs" `Quick test_knodel;
      Alcotest.test_case "random generators" `Quick test_random_generators;
      Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
      Alcotest.test_case "planted generator" `Quick test_planted;
      Alcotest.test_case "dot export" `Quick test_dot;
      Alcotest.test_case "vf2 k4 in k5" `Quick test_vf2_k4_in_k5;
      Alcotest.test_case "vf2 no match" `Quick test_vf2_no_match;
      Alcotest.test_case "vf2 loop in mesh" `Quick test_vf2_loop_in_mesh;
      Alcotest.test_case "vf2 directed paths" `Quick test_vf2_path_directed;
      Alcotest.test_case "vf2 star count" `Quick test_vf2_star;
      Alcotest.test_case "vf2 results valid" `Quick test_vf2_all_results_valid;
      Alcotest.test_case "vf2 max matches" `Quick test_vf2_max_matches;
      Alcotest.test_case "vf2 deadline" `Quick test_vf2_deadline;
      Alcotest.test_case "vf2 empty pattern" `Quick test_vf2_empty_pattern;
      Alcotest.test_case "vf2 edge image" `Quick test_vf2_edge_image;
      Alcotest.test_case "multi-pattern survivors" `Quick test_multi_pattern_survivors;
      Alcotest.test_case "multi-pattern has no false negatives" `Quick
        test_multi_pattern_no_false_negatives;
      Alcotest.test_case "multi-pattern duplicate id" `Quick test_multi_pattern_duplicate_id;
      QCheck_alcotest.to_alcotest qcheck_vf2_planted;
      QCheck_alcotest.to_alcotest qcheck_vf2_subtract;
      Alcotest.test_case "compact snapshot basics" `Quick test_compact_basics;
      QCheck_alcotest.to_alcotest qcheck_compact_matches_digraph;
      QCheck_alcotest.to_alcotest qcheck_vf2_compact_equals_map;
      Alcotest.test_case "fft16 labels within 100 refinement passes" `Quick
        test_fft16_labels_within_budget;
      Alcotest.test_case "canonical labeling truncates past its budget" `Quick
        test_canon_truncates;
      QCheck_alcotest.to_alcotest qcheck_undirected_edge_count;
    ] )
