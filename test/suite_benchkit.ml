(* Tests for the benchmark corpus, runner, record schema and regression
   gate (lib/benchkit). *)

module Corpus = Noc_benchkit.Corpus
module Runner = Noc_benchkit.Runner
module Record = Noc_benchkit.Record
module Regress = Noc_benchkit.Regress
module J = Noc_obs.Obs.Json
module Acg = Noc_core.Acg

(* ---------------------------------------------------------------- *)
(* Corpus                                                           *)

let test_corpus_shape () =
  let scenarios = Corpus.default () in
  Alcotest.(check bool) "at least 10 scenarios" true (List.length scenarios >= 10);
  let names = List.map (fun s -> s.Corpus.name) scenarios in
  Alcotest.(check int)
    "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Corpus.name ^ " kind known") true
        (List.mem s.Corpus.kind [ "paper"; "app"; "tgff"; "random" ]);
      Alcotest.(check bool)
        (s.Corpus.name ^ " non-empty") true
        (Acg.num_flows s.Corpus.acg > 0))
    scenarios;
  Alcotest.(check bool) "find hits" true (Corpus.find "aes" scenarios <> None);
  Alcotest.(check (option reject)) "find misses" None (Corpus.find "nope" scenarios)

let test_corpus_deterministic () =
  (* seeded generators: building the corpus twice yields identical graphs *)
  let once () =
    Corpus.default ()
    |> List.map (fun s ->
           (s.Corpus.name, Acg.num_flows s.Corpus.acg, Acg.total_volume s.Corpus.acg))
  in
  Alcotest.(check (list (triple string int int))) "same corpus" (once ()) (once ())

(* ---------------------------------------------------------------- *)
(* Runner                                                           *)

let smoke_result =
  (* one small scenario through the full flow; shared across tests *)
  lazy
    (let s = List.hd (Corpus.default ()) in
     Runner.run ~settings:Runner.smoke s)

let test_runner_sanity () =
  let r = Lazy.force smoke_result in
  Alcotest.(check string) "name" "fig2" r.Runner.name;
  Alcotest.(check bool) "cores" true (r.Runner.cores > 0);
  Alcotest.(check bool) "flows" true (r.Runner.flows > 0);
  Alcotest.(check int)
    "one search sample per domain count"
    (List.length Runner.smoke.Runner.domains)
    (List.length r.Runner.search);
  List.iter
    (fun s ->
      Alcotest.(check bool) "wall_s >= 0" true (s.Runner.wall_s >= 0.);
      Alcotest.(check bool) "nodes > 0" true (s.Runner.nodes > 0);
      Alcotest.(check bool) "cost finite" true (Float.is_finite s.Runner.best_cost))
    r.Runner.search;
  Alcotest.(check bool) "links" true (r.Runner.links > 0);
  Alcotest.(check bool) "energy positive" true (r.Runner.energy_pj > 0.);
  Alcotest.(check int) "one burst row" 1 (List.length r.Runner.engines);
  (match Runner.engine_row r "flit" with
  | Some fl ->
      Alcotest.(check string) "flit burst drains" "idle" fl.Runner.e_status;
      Alcotest.(check int) "one packet per flow" r.Runner.flows fl.Runner.e_delivered;
      Alcotest.(check bool) "no lane truncation on the corpus head" false fl.Runner.e_vc_truncated
  | None -> Alcotest.fail "missing engine burst row");
  Alcotest.(check int)
    "one sweep sample per rate"
    (List.length Runner.smoke.Runner.sweep_rates)
    (List.length r.Runner.sweep);
  let rs = r.Runner.resilience in
  Alcotest.(check bool)
    "resilience fraction in [0,1]" true
    (rs.Runner.min_delivered_fraction >= 0. && rs.Runner.min_delivered_fraction <= 1.);
  Alcotest.(check bool)
    "resilience latency factor sane" true
    (rs.Runner.max_latency_factor >= 1. || rs.Runner.max_latency_factor = 0.);
  Alcotest.(check int) "resilience strands nothing" 0 rs.Runner.resil_stranded;
  let sv = r.Runner.serve in
  Alcotest.(check int) "serve mix size" 9 sv.Runner.serve_requests;
  Alcotest.(check int) "serve ok (wf mix + admitted burst)" 6 sv.Runner.serve_ok;
  Alcotest.(check int) "serve hits (dup + permutations + burst)" 5 sv.Runner.serve_hits;
  Alcotest.(check (float 1e-9)) "serve hit rate" (5.0 /. 6.0) sv.Runner.serve_hit_rate;
  Alcotest.(check bool) "serve responses byte-identical" true sv.Runner.serve_byte_identical;
  Alcotest.(check bool) "serve rps positive" true (sv.Runner.serve_rps > 0.);
  Alcotest.(check int) "serve errors (unknown lib + dead deadline)" 2
    sv.Runner.serve_errors;
  Alcotest.(check int) "serve shed (3-burst through 2 slots)" 1 sv.Runner.serve_shed;
  Alcotest.(check (float 1e-9)) "serve error rate" (2.0 /. 9.0) sv.Runner.serve_error_rate;
  Alcotest.(check (float 1e-9)) "serve shed rate" (1.0 /. 9.0) sv.Runner.serve_shed_rate;
  Alcotest.(check bool) "serve snapshot restore" true sv.Runner.serve_restore_ok

(* ---------------------------------------------------------------- *)
(* Record                                                           *)

let record_of_result r = Record.to_json ~created_unix_s:0. ~rev:"test" ~mode:"smoke" [ r ]

let test_record_roundtrip () =
  let j = record_of_result (Lazy.force smoke_result) in
  (match Record.check_schema j with
  | Ok () -> ()
  | Error (`Msg m) -> Alcotest.failf "schema: %s" m);
  (* serialized form parses back and flattens to the same metrics *)
  match J.parse (J.to_string j) with
  | Error (`Msg m) -> Alcotest.failf "reparse: %s" m
  | Ok j' ->
      Alcotest.(check (list (pair string (float 1e-9))))
        "flatten survives a round-trip" (Record.flatten j) (Record.flatten j')

let test_record_flatten_keys () =
  let flat = Record.flatten (record_of_result (Lazy.force smoke_result)) in
  let has key = List.mem_assoc key flat in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " present") true (has k))
    [
      "schema_version";
      "scenarios.fig2.search.d1.wall_s";
      "scenarios.fig2.search.d1.nodes";
      "scenarios.fig2.energy_pj";
      "scenarios.fig2.engines.flit.avg_latency";
      "scenarios.fig2.engines.flit.vc_truncated";
      "scenarios.fig2.resilience.min_delivered_fraction";
      "scenarios.fig2.resilience.critical_links";
      "scenarios.fig2.resilience.survives_single_link";
    ]

(* ---------------------------------------------------------------- *)
(* Regression gate                                                  *)

(* multiply the named numeric member of each scenario object *)
let scale_metric key factor json =
  let rec go = function
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) ->
               if k = key then
                 match v with
                 | J.Float f -> (k, J.Float (f *. factor))
                 | J.Int i -> (k, J.Float (float_of_int i *. factor))
                 | other -> (k, go other)
               else (k, go v))
             fields)
    | J.List xs -> J.List (List.map go xs)
    | leaf -> leaf
  in
  go json

let compare_exn ?time_limit_pct ~base ~cur () =
  match Regress.compare_records ?time_limit_pct ~base ~cur () with
  | Ok report -> report
  | Error (`Msg m) -> Alcotest.failf "compare: %s" m

let test_regress_identical_passes () =
  let j = record_of_result (Lazy.force smoke_result) in
  let report = compare_exn ~base:j ~cur:j () in
  Alcotest.(check bool) "ok" true (Regress.ok report);
  Alcotest.(check int) "no regressions" 0 (List.length report.Regress.regressions);
  Alcotest.(check bool) "gated something" true (report.Regress.checked > 0)

let test_regress_flags_slowdown () =
  (* the acceptance case: a +20%-and-then-some wall-clock regression must
     trip the gate even under the default 10% timing threshold *)
  let base = record_of_result (Lazy.force smoke_result) in
  (* +25% and +0.1 s, comfortably past both the pct and min_abs floors *)
  let rec bump = function
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "wall_s", J.Float f -> (k, J.Float ((f *. 1.25) +. 0.1))
               | _ -> (k, bump v))
             fields)
    | J.List xs -> J.List (List.map bump xs)
    | leaf -> leaf
  in
  let cur = bump base in
  let report = compare_exn ~base ~cur () in
  Alcotest.(check bool) "gate trips" false (Regress.ok report);
  Alcotest.(check bool)
    "a wall_s metric is named" true
    (List.exists
       (fun v ->
         String.length v.Regress.metric >= 6
         && String.sub v.Regress.metric (String.length v.Regress.metric - 6) 6 = "wall_s")
       report.Regress.regressions)

let test_regress_flags_energy () =
  let base = record_of_result (Lazy.force smoke_result) in
  let cur = scale_metric "energy_pj" 1.21 base in
  let report = compare_exn ~base ~cur () in
  Alcotest.(check bool) "gate trips" false (Regress.ok report);
  Alcotest.(check bool)
    "energy metric flagged" true
    (List.exists
       (fun v -> v.Regress.metric = "scenarios.fig2.energy_pj")
       report.Regress.regressions)

let test_regress_improvement_not_flagged () =
  (* faster is fine: a large wall-clock drop lands in improvements *)
  let base = record_of_result (Lazy.force smoke_result) in
  let cur = scale_metric "energy_pj" 0.5 base in
  let report = compare_exn ~base ~cur () in
  Alcotest.(check bool) "ok" true (Regress.ok report);
  Alcotest.(check bool)
    "recorded as improvement" true
    (report.Regress.improvements <> [])

let test_regress_missing_metric () =
  let base = record_of_result (Lazy.force smoke_result) in
  let rec drop = function
    | J.Obj fields ->
        J.Obj
          (fields
          |> List.filter (fun (k, _) -> k <> "energy_pj")
          |> List.map (fun (k, v) -> (k, drop v)))
    | J.List xs -> J.List (List.map drop xs)
    | leaf -> leaf
  in
  let report = compare_exn ~base ~cur:(drop base) () in
  Alcotest.(check bool) "gate trips" false (Regress.ok report);
  Alcotest.(check (list string))
    "missing named" [ "scenarios.fig2.energy_pj" ] report.Regress.missing

let test_regress_schema_mismatch () =
  let base = record_of_result (Lazy.force smoke_result) in
  match Regress.compare_records ~base ~cur:(J.Obj [ ("schema", J.Str "other") ]) () with
  | Ok _ -> Alcotest.fail "expected schema error"
  | Error (`Msg _) -> ()

let suite =
  ( "benchkit",
    [
      Alcotest.test_case "corpus shape" `Quick test_corpus_shape;
      Alcotest.test_case "corpus deterministic" `Quick test_corpus_deterministic;
      Alcotest.test_case "runner smoke sanity" `Quick test_runner_sanity;
      Alcotest.test_case "record round-trip" `Quick test_record_roundtrip;
      Alcotest.test_case "record flatten keys" `Quick test_record_flatten_keys;
      Alcotest.test_case "regress: identical passes" `Quick test_regress_identical_passes;
      Alcotest.test_case "regress: slowdown flagged" `Quick test_regress_flags_slowdown;
      Alcotest.test_case "regress: energy flagged" `Quick test_regress_flags_energy;
      Alcotest.test_case "regress: improvement ok" `Quick test_regress_improvement_not_flagged;
      Alcotest.test_case "regress: missing metric" `Quick test_regress_missing_metric;
      Alcotest.test_case "regress: schema mismatch" `Quick test_regress_schema_mismatch;
    ] )
