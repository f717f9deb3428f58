(* Tests for the large-scale search machinery: work-stealing parallel
   decomposition, the anytime/greedy fallback, budget resolution/clamping,
   the domain bound, and the benchkit scaling tier.

   test_noc.ml sets NOCSYNTH_MAX_DOMAINS=8 before Alcotest runs, so
   multi-domain paths really execute even on a single-CPU CI box. *)

module D = Noc_graph.Digraph
module G = Noc_graph.Generators
module L = Noc_primitives.Library
module Acg = Noc_core.Acg
module Decomp = Noc_core.Decomposition
module Bb = Noc_core.Branch_bound
module Prng = Noc_util.Prng
module Corpus = Noc_benchkit.Corpus
module Obs = Noc_obs.Obs

let lib () = L.default ()

(* sparse random ACGs of the shape the scaling corpus uses; small enough
   that every search completes within the default 200k-node budget, which
   is what scopes the determinism guarantee *)
let sparse_acg ~seed ~n =
  let rng = Prng.create ~seed in
  let g = G.erdos_renyi ~rng ~n ~p:(3.0 /. float_of_int (n - 1)) in
  Acg.uniform ~volume:8 ~bandwidth:0.05 g

(* -------------------------------------------------------------------- *)
(* Budget resolution and the domain clamp                                *)

let test_domain_cap_env () =
  (* the harness exports NOCSYNTH_MAX_DOMAINS=8 *)
  Alcotest.(check int) "cap follows the env override" 8 (Bb.domain_cap ())

let test_resolve_budget_clamps () =
  let b = Bb.resolve_budget ~budget:Bb.Budget.(default |> with_domains 64) () in
  Alcotest.(check int) "over-ask clamps to the cap" (Bb.domain_cap ())
    b.Bb.Budget.domains;
  let b = Bb.resolve_budget ~budget:Bb.Budget.(default |> with_domains 0) () in
  Alcotest.(check int) "zero domains becomes one" 1 b.Bb.Budget.domains;
  let b = Bb.resolve_budget ~budget:Bb.Budget.(default |> with_domains (-3)) () in
  Alcotest.(check int) "negative domains becomes one" 1 b.Bb.Budget.domains

let test_resolve_budget_preserves_limits () =
  (* clamping only touches domains: time and node limits pass through *)
  let b =
    Bb.resolve_budget
      ~budget:Bb.Budget.(default |> with_timeout_s (Some 1.5) |> with_max_nodes 123)
      ()
  in
  Alcotest.(check (option (float 1e-9))) "timeout preserved" (Some 1.5)
    b.Bb.Budget.timeout_s;
  Alcotest.(check int) "max_nodes preserved" 123 b.Bb.Budget.max_nodes

let test_resolve_budget_default () =
  (* no budget resolves to the default *)
  let b = Bb.resolve_budget () in
  Alcotest.(check (option (float 1e-9))) "no timeout" None b.Bb.Budget.timeout_s;
  Alcotest.(check int) "default max_nodes" Bb.Budget.default.Bb.Budget.max_nodes
    b.Bb.Budget.max_nodes;
  Alcotest.(check int) "one domain" 1 b.Bb.Budget.domains

(* -------------------------------------------------------------------- *)
(* Work stealing: parallel cost = sequential cost                        *)

let qcheck_ws_cost_equals_sequential =
  QCheck.Test.make
    ~name:"work-stealing search (8 domains) reports the sequential cost" ~count:200
    QCheck.(pair small_int (int_range 5 10))
    (fun (seed, n) ->
      let acg = sparse_acg ~seed:(seed + 7100) ~n in
      let d1, s1 = Bb.decompose ~library:(lib ()) acg in
      let d8, s8 = Bb.decompose ~budget:Bb.Budget.(default |> with_domains 8) ~library:(lib ()) acg in
      if s1.Bb.timed_out || s8.Bb.timed_out then
        (* anytime result: only validity and feasibility are guaranteed *)
        Decomp.is_valid_for acg d8 && s8.Bb.best_cost < infinity
      else
        s1.Bb.best_cost = s8.Bb.best_cost
        && Decomp.is_valid_for acg d1
        && Decomp.is_valid_for acg d8)

let test_ws_counters () =
  (* the parallel engine reports its scheduler counters *)
  let acg = Corpus.clustered ~seed:3 ~n:32 in
  let _, st = Bb.decompose ~budget:Bb.Budget.(default |> with_domains 8) ~library:(lib ()) acg in
  Alcotest.(check bool) "at least one task" true (st.Bb.tasks >= 1);
  Alcotest.(check bool) "steals are non-negative" true (st.Bb.steals >= 0);
  let _, st1 = Bb.decompose ~library:(lib ()) acg in
  Alcotest.(check int) "sequential run is one task" 1 st1.Bb.tasks

(* -------------------------------------------------------------------- *)
(* Anytime fallback: budget exhaustion still yields a feasible answer    *)

let check_fallback_feasible acg =
  let options = { Bb.default_options with fallback = true } in
  let budget = Bb.Budget.(default |> with_timeout_s None |> with_max_nodes 10) in
  let d, st = Bb.decompose ~options ~budget ~library:(lib ()) acg in
  Decomp.is_valid_for acg d
  && Float.is_finite st.Bb.best_cost
  && st.Bb.best_cost <= float_of_int (D.num_edges (Acg.graph acg)) +. 1e-9
  && (match st.Bb.gap_pct with
     | Some g -> st.Bb.timed_out && g >= 0.0
     | None -> true)

let qcheck_fallback_always_feasible =
  QCheck.Test.make
    ~name:"fallback under a starved budget is always constraint-feasible" ~count:50
    QCheck.(pair small_int (int_range 12 24))
    (fun (seed, n) -> check_fallback_feasible (sparse_acg ~seed:(seed + 9400) ~n))

let test_fallback_scale_clustered () =
  (* a scaling-tier-sized input under a starved budget: the greedy seed
     guarantees a feasible decomposition with a reported gap *)
  let acg = Corpus.clustered ~seed:3 ~n:128 in
  let options = { Bb.default_options with fallback = true } in
  let budget = Bb.Budget.(default |> with_timeout_s None |> with_max_nodes 5) in
  let d, st = Bb.decompose ~options ~budget ~library:(lib ()) acg in
  Alcotest.(check bool) "valid decomposition" true (Decomp.is_valid_for acg d);
  Alcotest.(check bool) "budget exhausted" true st.Bb.timed_out;
  Alcotest.(check bool) "finite incumbent" true (Float.is_finite st.Bb.best_cost);
  Alcotest.(check bool) "gap reported" true (st.Bb.gap_pct <> None);
  Alcotest.(check bool) "gap non-negative" true
    (match st.Bb.gap_pct with Some g -> g >= 0.0 | None -> false)

(* -------------------------------------------------------------------- *)
(* Scaling corpus tier                                                   *)

let test_scale_corpus_shape () =
  let tier = Corpus.scale () in
  Alcotest.(check int) "three families x five sizes" 15 (List.length tier);
  let smoke = Corpus.scale_smoke () in
  Alcotest.(check int) "smoke slice is the two small sizes" 6 (List.length smoke);
  List.iter
    (fun (s : Corpus.scenario) ->
      Alcotest.(check string) (s.name ^ " kind") "scale" s.kind;
      Alcotest.(check bool)
        (s.name ^ " has flows")
        true
        (D.num_edges (Acg.graph s.acg) > 0))
    tier;
  (* generators are seeded: regenerating gives identical graphs *)
  List.iter2
    (fun (a : Corpus.scenario) (b : Corpus.scenario) ->
      Alcotest.(check bool) (a.name ^ " is reproducible") true
        (D.edges (Acg.graph a.acg) = D.edges (Acg.graph b.acg)))
    smoke
    (Corpus.scale_smoke ())

(* -------------------------------------------------------------------- *)
(* The domain bound: a search runs on at most Budget.domains domains     *)

let test_domain_bound () =
  let acg = Corpus.clustered ~seed:3 ~n:32 in
  List.iter
    (fun (domains, fallback) ->
      let observe = Obs.create () in
      ignore
        (Bb.decompose
           ~options:{ Bb.default_options with fallback }
           ~budget:Bb.Budget.(default |> with_domains domains)
           ~observe ~library:(lib ()) acg);
      let tids =
        match Obs.Json.member "traceEvents" (Obs.Trace.to_json observe) with
        | Some (Obs.Json.List events) ->
            List.sort_uniq compare (List.filter_map (Obs.Json.member "tid") events)
        | _ -> []
      in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d fallback=%b: %d domain id(s) traced" domains fallback
           (List.length tids))
        true
        (tids <> [] && List.length tids <= domains))
    [ (1, false); (1, true); (2, false); (2, true); (4, false); (4, true) ]

let suite =
  ( "scale",
    [
      Alcotest.test_case "domain cap follows the env override" `Quick test_domain_cap_env;
      Alcotest.test_case "resolve_budget clamps domains" `Quick test_resolve_budget_clamps;
      Alcotest.test_case "resolve_budget preserves time and node limits" `Quick
        test_resolve_budget_preserves_limits;
      Alcotest.test_case "resolve_budget defaults" `Quick test_resolve_budget_default;
      Alcotest.test_case "work-stealing scheduler counters" `Quick test_ws_counters;
      Alcotest.test_case "fallback on a 128-core clustered graph" `Quick
        test_fallback_scale_clustered;
      Alcotest.test_case "scale corpus shape" `Quick test_scale_corpus_shape;
      QCheck_alcotest.to_alcotest qcheck_ws_cost_equals_sequential;
      QCheck_alcotest.to_alcotest qcheck_fallback_always_feasible;
      Alcotest.test_case "a traced search stays within Budget.domains" `Quick
        test_domain_bound;
    ] )
