(* Tests for the multi-objective exploration driver: Pareto dominance and
   archive maintenance, hypervolume (three independent algorithms), the
   design-space axes, determinism of the sharded driver, the brute-force
   front oracle, and the Mapping permutation helpers the driver rides on
   (which had no dedicated suite before this one).

   The qcheck properties run the real decompose->synthesize pipeline, so
   the generated ACGs stay at 3-5 cores with the minimal library: a full
   property run is a few seconds, not minutes. *)

module D = Noc_graph.Digraph
module G = Noc_graph.Generators
module L = Noc_primitives.Library
module Acg = Noc_core.Acg
module Mapping = Noc_core.Mapping
module Ws = Noc_core.Ws
module Prng = Noc_util.Prng
module Pareto = Noc_explore.Pareto
module E = Noc_explore.Explore
module F = Noc_oracle.Front
module Obs = Noc_obs.Obs

let mini () = L.minimal ()

(* random small ACG with varied volumes, so objective vectors actually
   spread out instead of collapsing onto a handful of ties *)
let gen_acg ~seed ~n =
  let rng = Prng.create ~seed in
  let g = G.erdos_renyi ~rng ~n ~p:0.6 in
  match D.edges g with
  | [] -> Acg.of_weighted_edges [ (1, 2, 8, 0.1) ]
  | edges ->
      Acg.of_weighted_edges
        (List.map
           (fun (u, v) ->
             (u, v, Prng.int_in rng 1 64, float_of_int (Prng.int_in rng 0 40) /. 100.0))
           edges)

(* random vectors on a coarse grid: ties and exact dominance both occur *)
let gen_vectors ~seed ~n =
  let rng = Prng.create ~seed in
  List.init n (fun _ ->
      {
        Pareto.energy_pj = float_of_int (Prng.int_in rng 0 12);
        latency = float_of_int (Prng.int_in rng 0 12);
        area_mm2 = float_of_int (Prng.int_in rng 0 12);
      })

let explore ~seed ?(domains = 1) ?(points = 16) acg =
  let axes = E.axes ~seed ~library:(mini ()) acg in
  (axes, E.run ~domains ~points ~seed axes acg)

(* -------------------------------------------------------------------- *)
(* Pareto machinery                                                      *)

let test_dominates_basics () =
  let v e l a = { Pareto.energy_pj = e; latency = l; area_mm2 = a } in
  Alcotest.(check bool) "strictly better dominates" true
    (Pareto.dominates (v 1. 1. 1.) (v 2. 2. 2.));
  Alcotest.(check bool) "better on one axis suffices" true
    (Pareto.dominates (v 1. 2. 2.) (v 2. 2. 2.));
  Alcotest.(check bool) "equal vectors do not dominate" false
    (Pareto.dominates (v 1. 1. 1.) (v 1. 1. 1.));
  Alcotest.(check bool) "trade-off does not dominate" false
    (Pareto.dominates (v 1. 3. 1.) (v 2. 2. 2.))

let test_reference_point_dominates_all () =
  let vs = gen_vectors ~seed:3 ~n:20 in
  let r = Pareto.reference_point vs in
  List.iter
    (fun v -> Alcotest.(check bool) "strictly inside the reference" true
        (v.Pareto.energy_pj < r.Pareto.energy_pj
        && v.Pareto.latency < r.Pareto.latency
        && v.Pareto.area_mm2 < r.Pareto.area_mm2))
    vs

let qcheck_archive_order_invariant =
  QCheck.Test.make ~name:"archive front is invariant under insertion order" ~count:200
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let entries =
        List.mapi (fun id vec -> { Pareto.vec; id }) (gen_vectors ~seed ~n)
      in
      let shuffled =
        let arr = Array.of_list entries in
        Prng.shuffle (Prng.create ~seed:(seed + 1)) arr;
        Array.to_list arr
      in
      Pareto.entries (Pareto.of_entries entries)
      = Pareto.entries (Pareto.of_entries shuffled)
      && Pareto.entries (Pareto.of_entries entries) = Pareto.filter_reference entries)

let qcheck_hv_three_algorithms_agree =
  QCheck.Test.make
    ~name:"hypervolume: slab sweep = inclusion-exclusion = cell grid" ~count:200
    QCheck.(pair small_int (int_range 1 10))
    (fun (seed, n) ->
      let vs = gen_vectors ~seed ~n in
      let ref_point = Pareto.reference_point vs in
      let sweep = Pareto.hypervolume ~ref_point vs in
      let ie = F.hypervolume_ie ~ref_point vs in
      let grid = F.hypervolume_grid ~ref_point vs in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a) in
      close sweep ie && close sweep grid)

let qcheck_hv_monotone =
  QCheck.Test.make
    ~name:"hypervolume is monotone non-decreasing under point arrival" ~count:200
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let vs = gen_vectors ~seed ~n in
      (* the reference is fixed up front, as the driver fixes it per run *)
      let ref_point = Pareto.reference_point vs in
      let hvs =
        List.mapi (fun i _ -> Pareto.hypervolume ~ref_point (List.filteri (fun j _ -> j <= i) vs)) vs
      in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) ->
            (* float slack: each prefix re-sums different slab partitions *)
            b >= a -. (1e-9 *. Float.max 1.0 (Float.abs a)) && non_decreasing rest
        | _ -> true
      in
      non_decreasing hvs)

(* -------------------------------------------------------------------- *)
(* The driver: dominance and determinism properties                      *)

let qcheck_front_nondominated =
  QCheck.Test.make ~name:"no front point dominates another" ~count:200
    QCheck.(pair small_int (int_range 3 5))
    (fun (seed, n) ->
      let _, r = explore ~seed:(seed + 100) (gen_acg ~seed:(seed + 100) ~n) in
      List.for_all
        (fun (p : E.point) ->
          List.for_all
            (fun (q : E.point) -> not (Pareto.dominates p.E.vec q.E.vec) || p == q)
            r.E.front)
        r.E.front)

let qcheck_evaluated_on_or_dominated =
  QCheck.Test.make
    ~name:"every evaluated point is on the front or dominated by it" ~count:200
    QCheck.(pair small_int (int_range 3 5))
    (fun (seed, n) ->
      let _, r = explore ~seed:(seed + 200) (gen_acg ~seed:(seed + 200) ~n) in
      Array.for_all
        (fun (p : E.point) ->
          List.exists (fun (q : E.point) -> q.E.index = p.E.index) r.E.front
          || List.exists
               (fun (q : E.point) ->
                 Pareto.dominates q.E.vec p.E.vec || q.E.vec = p.E.vec)
               r.E.front)
        r.E.evaluated)

let qcheck_front_order_invariant =
  QCheck.Test.make
    ~name:"front is invariant under point-evaluation order" ~count:200
    QCheck.(pair small_int (int_range 3 5))
    (fun (seed, n) ->
      let _, r = explore ~seed:(seed + 300) (gen_acg ~seed:(seed + 300) ~n) in
      let entries =
        Array.to_list (Array.map (fun (p : E.point) -> { Pareto.vec = p.E.vec; id = p.E.index }) r.E.evaluated)
      in
      let reversed = List.rev entries in
      let shuffled =
        let arr = Array.of_list entries in
        Prng.shuffle (Prng.create ~seed) arr;
        Array.to_list arr
      in
      let front es = Pareto.entries (Pareto.of_entries es) in
      front entries = front reversed && front entries = front shuffled)

let qcheck_front_domains_invariant =
  QCheck.Test.make ~name:"front is identical under 1 and 4 domains" ~count:200
    QCheck.(pair small_int (int_range 3 5))
    (fun (seed, n) ->
      let acg = gen_acg ~seed:(seed + 400) ~n in
      let _, r1 = explore ~seed:(seed + 400) ~domains:1 acg in
      let _, r4 = explore ~seed:(seed + 400) ~domains:4 acg in
      let indices (r : E.result) = List.map (fun (p : E.point) -> p.E.index) r.E.front in
      indices r1 = indices r4
      && r1.E.hypervolume = r4.E.hypervolume
      && Array.length r1.E.evaluated = Array.length r4.E.evaluated)

(* -------------------------------------------------------------------- *)
(* The exhaustive oracle                                                 *)

let qcheck_oracle_front_equality =
  QCheck.Test.make
    ~name:"full enumeration recovers the oracle front exactly" ~count:40
    QCheck.(pair small_int (int_range 3 5))
    (fun (seed, n) ->
      let acg = gen_acg ~seed:(seed + 500) ~n in
      let library = mini () in
      let o = F.compute ~library acg in
      let axes = E.axes ~max_mappings:720 ~seed:0 ~library acg in
      let r = E.run ~points:0 ~seed:0 axes acg in
      let key (p : E.point) = (p.E.index, p.E.vec) in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a) in
      List.map key r.E.front = List.map key o.F.front
      && close r.E.hypervolume o.F.hypervolume
      && r.E.space = List.length o.F.points)

let qcheck_oracle_sampled_subset =
  QCheck.Test.make
    ~name:"sampling restricts the oracle front, never invents energy/latency/area wins"
    ~count:40
    QCheck.(pair small_int (int_range 3 5))
    (fun (seed, n) ->
      let acg = gen_acg ~seed:(seed + 600) ~n in
      let library = mini () in
      let o = F.compute ~library acg in
      let axes = E.axes ~max_mappings:720 ~seed:0 ~library acg in
      let r = E.run ~points:20 ~seed:(seed + 600) axes acg in
      let sampled =
        Array.to_list (Array.map (fun (p : E.point) -> p.E.index) r.E.evaluated)
      in
      let in_sampled_front i =
        List.exists (fun (p : E.point) -> p.E.index = i) r.E.front
      in
      (* every oracle-front point the sample evaluated survives sampling *)
      List.for_all
        (fun (p : E.point) ->
          (not (List.mem p.E.index sampled)) || in_sampled_front p.E.index)
        o.F.front)

let test_oracle_six_core_unit () =
  (* the largest admissible oracle input: every one of the 6! x subsets x
     scales = 4320 design points evaluated on both sides *)
  let acg =
    Acg.of_weighted_edges
      [
        (1, 2, 64, 0.2); (2, 3, 32, 0.1); (3, 4, 64, 0.2);
        (4, 5, 16, 0.05); (5, 6, 48, 0.15); (6, 1, 32, 0.1); (1, 4, 8, 0.02);
      ]
  in
  let library = mini () in
  let o = F.compute ~library acg in
  let axes = E.axes ~max_mappings:720 ~seed:0 ~library acg in
  let r = E.run ~points:0 ~domains:4 ~seed:0 axes acg in
  Alcotest.(check int) "whole space evaluated" 4320 (Array.length r.E.evaluated);
  Alcotest.(check bool) "fronts identical" true
    (List.map (fun (p : E.point) -> p.E.index) r.E.front
    = List.map (fun (p : E.point) -> p.E.index) o.F.front);
  Alcotest.(check (float 1e-6)) "hypervolume identical" o.F.hypervolume r.E.hypervolume

let chain_acg n =
  Acg.of_weighted_edges (List.init (n - 1) (fun i -> (i + 1, i + 2, 8, 0.1)))

let test_oracle_guard () =
  let acg = chain_acg 7 in
  Alcotest.check_raises "7 cores rejected"
    (Invalid_argument "Front.compute: 7 cores exceed the 6-core exhaustive guard")
    (fun () -> ignore (F.compute ~library:(mini ()) acg))

(* -------------------------------------------------------------------- *)
(* Axes, evaluation and exporters                                        *)

let test_axes_shape () =
  let acg = gen_acg ~seed:11 ~n:4 in
  let axes = E.axes ~seed:11 ~library:(L.default ()) acg in
  (* 4 cores -> all 24 permutations; the default library has one saver
     (MGG4: 4 links for 12 covered edges), so two subsets *)
  Alcotest.(check int) "all permutations" 24 (Array.length axes.E.mappings);
  Alcotest.(check bool) "identity first" true
    (axes.E.mappings.(0) = Mapping.identity acg);
  Alcotest.(check (list string)) "subset labels" [ "full"; "neutral" ]
    (Array.to_list (Array.map fst axes.E.subsets));
  Alcotest.(check int) "space size" (24 * 2 * 3) (E.space_size axes)

let test_axes_sampled_mappings () =
  let acg = gen_acg ~seed:12 ~n:8 in
  let axes = E.axes ~seed:12 ~library:(mini ()) acg in
  (* 8! is past the default cap: identity + 23 distinct random draws *)
  Alcotest.(check int) "capped mapping axis" 24 (Array.length axes.E.mappings);
  Alcotest.(check bool) "identity first" true (axes.E.mappings.(0) = Mapping.identity acg);
  let images =
    Array.to_list
      (Array.map (fun m -> List.map snd (D.Vmap.bindings m)) axes.E.mappings)
  in
  Alcotest.(check int) "mappings are distinct" 24
    (List.length (List.sort_uniq compare images))

let test_evaluate_out_of_range () =
  let acg = gen_acg ~seed:13 ~n:3 in
  let axes = E.axes ~seed:13 ~library:(mini ()) acg in
  let space = E.space_size axes in
  Alcotest.check_raises "index out of range"
    (Invalid_argument
       (Printf.sprintf "Explore.evaluate: index %d outside space of %d points" space space))
    (fun () -> ignore (E.evaluate axes acg space))

let test_bw_scale_tradeoff () =
  (* same mapping and subset, wider links: latency never worse, area
     strictly larger - the provisioning axis is a genuine trade-off *)
  let acg = gen_acg ~seed:14 ~n:4 in
  let axes = E.axes ~seed:14 ~library:(mini ()) acg in
  let p_low = E.evaluate axes acg 0 and p_high = E.evaluate axes acg 2 in
  Alcotest.(check bool) "scales decoded in order" true
    (p_low.E.bw_scale < p_high.E.bw_scale);
  Alcotest.(check bool) "wider links never slower" true
    (p_high.E.vec.Pareto.latency <= p_low.E.vec.Pareto.latency);
  Alcotest.(check bool) "wider links cost area" true
    (p_high.E.vec.Pareto.area_mm2 > p_low.E.vec.Pareto.area_mm2);
  Alcotest.(check (float 1e-9)) "energy is scale-independent"
    p_low.E.vec.Pareto.energy_pj p_high.E.vec.Pareto.energy_pj

let test_exporters () =
  let acg = gen_acg ~seed:15 ~n:4 in
  let axes, r = explore ~seed:15 acg in
  let json = E.to_json ~name:"t" axes r in
  (match Obs.Json.parse (Obs.Json.to_string json) with
  | Error (`Msg m) -> Alcotest.fail ("emitted JSON does not parse: " ^ m)
  | Ok round ->
      Alcotest.(check bool) "front_size serialized" true
        (Obs.Json.member "front_size" round = Some (Obs.Json.Int (List.length r.E.front))));
  let rows = E.to_csv_rows ~name:"t" axes r in
  Alcotest.(check int) "one CSV row per front point" (List.length r.E.front)
    (List.length rows);
  let cols s = List.length (String.split_on_char ',' s) in
  List.iter
    (fun row ->
      Alcotest.(check int) "row arity matches the header" (cols E.csv_header) (cols row))
    rows

let test_observer_metrics () =
  let acg = gen_acg ~seed:16 ~n:4 in
  let axes = E.axes ~seed:16 ~library:(mini ()) acg in
  let observe = Obs.create () in
  let r = E.run ~observe ~points:8 ~seed:16 axes acg in
  let metrics = Obs.metrics observe in
  Alcotest.(check (option (float 1e-9))) "points counter"
    (Some (float_of_int (Array.length r.E.evaluated)))
    (Option.bind (List.assoc_opt "explore.points" metrics) Obs.Json.to_float);
  Alcotest.(check (option (float 1e-9))) "front gauge"
    (Some (float_of_int (List.length r.E.front)))
    (Option.bind (List.assoc_opt "explore.front_size" metrics) Obs.Json.to_float);
  Alcotest.(check (option (float 1e-9))) "hv gauge" (Some r.E.hypervolume)
    (Option.bind (List.assoc_opt "explore.hv" metrics) Obs.Json.to_float)

(* -------------------------------------------------------------------- *)
(* Ws.map: the shared deterministic parallel map                         *)

let test_ws_map_matches_sequential () =
  let input = Array.init 100 (fun i -> i) in
  let f i = (i * 7) mod 31 in
  let seq, s1 = Ws.map ~domains:1 f input in
  let par, s4 = Ws.map ~domains:4 f input in
  Alcotest.(check bool) "identical results in index order" true (seq = par);
  Alcotest.(check bool) "identical to Array.map" true (par = Array.map f input);
  Alcotest.(check int) "sequential runs one worker" 1 s1.Ws.workers;
  Alcotest.(check int) "parallel runs four workers" 4 s4.Ws.workers

let test_ws_map_propagates_exceptions () =
  Alcotest.check_raises "worker exception reaches the caller" Exit (fun () ->
      ignore (Ws.map ~domains:4 (fun i -> if i = 17 then raise Exit else i) (Array.init 32 Fun.id)))

(* Ws.run on a spawning task tree: every task above depth 6 spawns two
   children, 127 tasks in all *)
let run_tree ~domains ~fail_at =
  let runs = Array.init 127 (fun _ -> Atomic.make 0) in
  let stats =
    Ws.run ~domains [| (0, 0) |] (fun ~slot:_ ~spawn (id, depth) ->
        Atomic.incr runs.(id);
        if id = fail_at then raise Exit;
        if depth < 6 then begin
          spawn ((2 * id) + 1, depth + 1);
          spawn ((2 * id) + 2, depth + 1)
        end)
  in
  (stats, Array.map Atomic.get runs)

let test_ws_run_tree () =
  List.iter
    (fun domains ->
      let stats, runs = run_tree ~domains ~fail_at:(-1) in
      Alcotest.(check (array int))
        (Printf.sprintf "every task runs once at %d worker(s)" domains)
        (Array.make 127 1) runs;
      Alcotest.(check int) "tasks counted" 127 stats.Ws.tasks;
      Alcotest.(check int) "workers" domains stats.Ws.workers)
    [ 1; 4 ]

let test_ws_run_propagates_exceptions () =
  Alcotest.check_raises "a spawned task's exception reaches the caller" Exit (fun () ->
      ignore (run_tree ~domains:4 ~fail_at:100))

(* -------------------------------------------------------------------- *)
(* Mapping helpers (backfill: Mapping had no dedicated tests)            *)

let qcheck_apply_preserves_volume =
  QCheck.Test.make
    ~name:"Mapping.apply preserves total volume and flow count" ~count:200
    QCheck.(pair small_int (int_range 3 6))
    (fun (seed, n) ->
      let acg = gen_acg ~seed:(seed + 700) ~n in
      let m = Mapping.random ~rng:(Prng.create ~seed) acg in
      let acg' = Mapping.apply m acg in
      Acg.total_volume acg' = Acg.total_volume acg
      && Acg.num_flows acg' = Acg.num_flows acg
      && Acg.num_cores acg' = Acg.num_cores acg)

let qcheck_identity_cost_is_direct_hop_sum =
  QCheck.Test.make
    ~name:"identity mapping's mesh cost equals the direct hop sum" ~count:200
    QCheck.(pair small_int (int_range 3 6))
    (fun (seed, n) ->
      let acg = gen_acg ~seed:(seed + 800) ~n in
      let cols = 3 in
      let manhattan a b =
        let ra = (a - 1) / cols and ca = (a - 1) mod cols in
        let rb = (b - 1) / cols and cb = (b - 1) mod cols in
        abs (ra - rb) + abs (ca - cb)
      in
      let direct =
        D.fold_edges
          (fun u v acc -> acc +. float_of_int (Acg.volume acg u v * manhattan u v))
          (Acg.graph acg) 0.0
      in
      Mapping.mesh_hop_cost ~rows:3 ~cols acg (Mapping.identity acg) = direct)

let qcheck_apply_roundtrip =
  QCheck.Test.make
    ~name:"Mapping.apply round-trips through the inverse permutation" ~count:200
    QCheck.(pair small_int (int_range 3 6))
    (fun (seed, n) ->
      let acg = gen_acg ~seed:(seed + 900) ~n in
      let m = Mapping.random ~rng:(Prng.create ~seed:(seed + 900)) acg in
      let inverse = D.Vmap.fold (fun k v acc -> D.Vmap.add v k acc) m D.Vmap.empty in
      let back = Mapping.apply inverse (Mapping.apply m acg) in
      let edge_attrs a =
        List.map (fun (u, v) -> (u, v, Acg.volume a u v, Acg.bandwidth a u v))
          (D.edges (Acg.graph a))
      in
      List.sort compare (D.vertex_list (Acg.graph back))
      = List.sort compare (D.vertex_list (Acg.graph acg))
      && edge_attrs back = edge_attrs acg)

let test_mapping_all_lexicographic () =
  let acg = Acg.of_weighted_edges [ (1, 2, 1, 0.0); (2, 3, 1, 0.0) ] in
  let images = List.map (fun m -> List.map snd (D.Vmap.bindings m)) (Mapping.all acg) in
  Alcotest.(check (list (list int))) "3! permutations in lexicographic order"
    [ [1;2;3]; [1;3;2]; [2;1;3]; [2;3;1]; [3;1;2]; [3;2;1] ]
    images

let test_mapping_all_guard () =
  let acg = chain_acg 8 in
  Alcotest.check_raises "8 cores exceed the default guard"
    (Invalid_argument "Mapping.all: 8 cores exceed the 7-core enumeration guard")
    (fun () -> ignore (Mapping.all acg))

let test_mesh_hop_cost_unmapped_raises () =
  (* the historical behaviour was a bare Not_found escaping from Vmap *)
  let acg = Acg.of_weighted_edges [ (1, 2, 4, 0.0) ] in
  Alcotest.check_raises "unmapped core is an Invalid_argument"
    (Invalid_argument "Mapping.mesh_hop_cost: core 2 not mapped")
    (fun () ->
      ignore (Mapping.mesh_hop_cost ~rows:2 ~cols:2 acg (D.Vmap.singleton 1 1)))

let suite =
  ( "explore",
    [
      Alcotest.test_case "dominance basics" `Quick test_dominates_basics;
      Alcotest.test_case "reference point strictly dominates all vectors" `Quick
        test_reference_point_dominates_all;
      QCheck_alcotest.to_alcotest qcheck_archive_order_invariant;
      QCheck_alcotest.to_alcotest qcheck_hv_three_algorithms_agree;
      QCheck_alcotest.to_alcotest qcheck_hv_monotone;
      QCheck_alcotest.to_alcotest qcheck_front_nondominated;
      QCheck_alcotest.to_alcotest qcheck_evaluated_on_or_dominated;
      QCheck_alcotest.to_alcotest qcheck_front_order_invariant;
      QCheck_alcotest.to_alcotest qcheck_front_domains_invariant;
      QCheck_alcotest.to_alcotest qcheck_oracle_front_equality;
      QCheck_alcotest.to_alcotest qcheck_oracle_sampled_subset;
      Alcotest.test_case "6-core exhaustive oracle equality" `Quick
        test_oracle_six_core_unit;
      Alcotest.test_case "oracle rejects 7 cores" `Quick test_oracle_guard;
      Alcotest.test_case "axes shape on an enumerable scenario" `Quick test_axes_shape;
      Alcotest.test_case "axes sample distinct mappings past the cap" `Quick
        test_axes_sampled_mappings;
      Alcotest.test_case "evaluate rejects out-of-range indices" `Quick
        test_evaluate_out_of_range;
      Alcotest.test_case "bandwidth provisioning is a real trade-off" `Quick
        test_bw_scale_tradeoff;
      Alcotest.test_case "JSON and CSV exporters" `Quick test_exporters;
      Alcotest.test_case "observer counters and gauges" `Quick test_observer_metrics;
      Alcotest.test_case "Ws.map equals the sequential map" `Quick
        test_ws_map_matches_sequential;
      Alcotest.test_case "Ws.map propagates worker exceptions" `Quick
        test_ws_map_propagates_exceptions;
      QCheck_alcotest.to_alcotest qcheck_apply_preserves_volume;
      QCheck_alcotest.to_alcotest qcheck_identity_cost_is_direct_hop_sum;
      QCheck_alcotest.to_alcotest qcheck_apply_roundtrip;
      Alcotest.test_case "Mapping.all is lexicographic, identity first" `Quick
        test_mapping_all_lexicographic;
      Alcotest.test_case "Mapping.all guards large cores" `Quick test_mapping_all_guard;
      Alcotest.test_case "mesh_hop_cost reports unmapped cores" `Quick
        test_mesh_hop_cost_unmapped_raises;
      Alcotest.test_case "Ws.run runs a spawned task tree once per task" `Quick
        test_ws_run_tree;
      Alcotest.test_case "Ws.run propagates spawned-task exceptions" `Quick
        test_ws_run_propagates_exceptions;
    ] )
