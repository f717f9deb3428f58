(* nocsynth: command-line front-end for the NoC communication architecture
   synthesis flow.

     nocsynth generate ...   make an ACG (TGFF-style task graph or random)
     nocsynth decompose ...  run the branch-and-bound decomposition
     nocsynth synth ...      decompose + glue + deadlock report (+ DOT)
     nocsynth simulate ...   customized vs mesh under random traffic
     nocsynth aes            the paper's Section 5.2 experiment
     nocsynth bench ...      run the benchmark corpus, write BENCH_<rev>.json
     nocsynth explore ...    multi-objective Pareto exploration of the corpus
     nocsynth faults ...     fault-injection campaigns (+ optional hardening)

   All diagnostics go through Logs to stderr; stdout carries only data
   (listings, reports, ACG text, and the --metrics JSON), so outputs can
   be piped.  Unreadable or malformed ACG files and unknown scenarios exit
   with code 2; bad option values and combinations are usage errors (124). *)

open Cmdliner

module Acg = Noc_core.Acg
module Acg_io = Noc_core.Acg_io
module Bb = Noc_core.Branch_bound
module Decomp = Noc_core.Decomposition
module D = Noc_graph.Digraph
module Syn = Noc_core.Synthesis
module L = Noc_primitives.Library
module Fp = Noc_energy.Floorplan
module Tech = Noc_energy.Technology
module Obs = Noc_obs.Obs
module Corpus = Noc_benchkit.Corpus
module Runner = Noc_benchkit.Runner
module Serve = Noc_serve

let setup_logs () =
  Logs.set_reporter
    (Logs.format_reporter ~app:Format.err_formatter ~dst:Format.err_formatter ());
  Logs.set_level (Some Logs.Info)

(* exit code 2: input problems, as distinct from cmdliner's 124/125 *)
let load_acg file =
  match Acg_io.load file with
  | Ok acg -> acg
  | Error (`Msg m) ->
      Logs.err (fun k -> k "%s" m);
      exit 2

(* ------------------------------------------------------------------ *)
(* shared arguments                                                     *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed (deterministic runs).")

(* --library takes the names a service request takes *)
let library_name_arg =
  let names = Arg.enum (List.map (fun n -> (n, n)) [ "default"; "minimal"; "extended" ]) in
  Arg.(
    value & opt names "default"
    & info [ "library" ] ~docv:"LIB" ~doc:"Communication library: default, minimal or extended.")

let library_arg =
  Term.(const (fun n -> Option.get (Serve.Proto.Request.library_of_name n)) $ library_name_arg)

let acg_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"ACG" ~doc:"ACG file (see Acg_io format).")

(* A width, budget or count below 1 (a deadline at or below 0) is a usage
   error, not an empty, clamped or crashing run. *)
let checked conv ~ok ~what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when ok x -> Ok x
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not a %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int ~ok:(fun n -> n >= 1) ~what:"positive integer"
let positive_float = checked Arg.float ~ok:(fun x -> x > 0.) ~what:"positive number"

(* for counts where 0 has a meaning of its own *)
let non_negative_int = checked Arg.int ~ok:(fun n -> n >= 0) ~what:"non-negative integer"

let beam_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "beam" ] ~docv:"K"
        ~doc:"Matches of each primitive expanded per search node (the paper uses 1).")

let timeout_arg =
  Arg.(
    value & opt (some positive_float) None
    & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Wall-clock budget for the search.")

let node_budget_arg =
  Arg.(
    value & opt positive_int Bb.Budget.default.Bb.Budget.max_nodes
    & info [ "max-nodes" ] ~docv:"N" ~doc:"Search-tree node budget (backstop).")

let domains_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains for the branch-and-bound search (1 = sequential). Domains \
              run a work-stealing deque scheduler with a shared incumbent bound; \
              completed searches return results identical to the sequential search. \
              Clamped to the machine's recommended domain count \
              (override: \\$NOCSYNTH_MAX_DOMAINS).")

let fallback_flag =
  Arg.(
    value & flag
    & info [ "fallback" ]
        ~doc:"Seed the search with the deterministic greedy completion so a budget \
              exhaustion still returns a feasible decomposition, with the optimality \
              gap reported.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event JSON file of the run (load it in Perfetto or \
              about://tracing).")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print a JSON metrics summary on stdout (human output moves to stderr).")

let cost_arg =
  let cost_enum = Arg.enum [ ("edge", `Edge); ("energy", `Energy) ] in
  Arg.(
    value & opt cost_enum `Edge
    & info [ "cost" ] ~docv:"COST"
        ~doc:"Cost function: abstract link count (edge) or Eq. 5 energy against a grid \
              floorplan (energy).")

let tech_arg =
  let presets = List.map (fun t -> (t.Tech.name, t)) Tech.presets in
  Arg.(
    value & opt (enum presets) Tech.cmos_180nm
    & info [ "tech" ] ~docv:"NODE" ~doc:"Technology preset (cmos-180nm, cmos-130nm, cmos-100nm).")

(* budget-exhaustion diagnostics shared by decompose and synth *)
let warn_anytime (st : Bb.stats) =
  if st.Bb.timed_out then begin
    (match st.Bb.gap_pct with
    | Some gap ->
        Logs.warn (fun k ->
            k "search budget exhausted; best incumbent shown (optimality gap <= %.1f%%)"
              gap)
    | None -> Logs.warn (fun k -> k "search budget exhausted; best incumbent shown"));
    if st.Bb.fallback_used then
      Logs.info (fun k -> k "greedy anytime fallback supplied the result")
  end

(* --timeout, --max-nodes and --domains *)
let budget_term =
  let make timeout max_nodes domains =
    Bb.Budget.(
      default |> with_timeout_s timeout |> with_max_nodes max_nodes |> with_domains domains)
  in
  Term.(const make $ timeout_arg $ node_budget_arg $ domains_arg)

(* What decompose and synth hand the search.  The options depend on the
   ACG: the energy cost is measured against its grid floorplan. *)
type search = {
  library : L.t;
  budget : Bb.Budget.t;
  tech : Tech.t;
  options : Acg.t -> Bb.options;
}

let search_term =
  let make library cost tech beam budget fallback =
    let options acg =
      {
        Bb.default_options with
        cost =
          (match cost with
          | `Edge -> Noc_core.Cost.Edge_count
          | `Energy -> Noc_core.Cost.Energy { tech; fp = Acg.grid_floorplan acg });
        max_matches_per_step = beam;
        fallback;
      }
    in
    { library; budget; tech; options }
  in
  Term.(
    const make $ library_arg $ cost_arg $ tech_arg $ beam_arg $ budget_term $ fallback_flag)

(* --trace and --metrics.  With --metrics, stdout is reserved for the JSON
   that [finish] prints, so [say] moves human output to stderr. *)
type output = {
  observe : Obs.t;
  say : 'a. ('a, unit, string, unit) format4 -> 'a;  (** one line of human output *)
  finish : ?json:Obs.Json.t -> unit -> unit;  (** writes the trace, prints the JSON *)
}

let output_term =
  let make trace metrics =
    let observe = if trace <> None || metrics then Obs.create () else Obs.disabled in
    let say fmt =
      Printf.ksprintf
        (fun s -> if metrics then Logs.app (fun k -> k "%s" s) else print_endline s)
        fmt
    in
    let finish ?json () =
      Option.iter
        (fun path ->
          Obs.Trace.write observe ~path;
          Logs.info (fun k -> k "wrote trace %s" path))
        trace;
      match json with
      | Some json when metrics -> print_endline (Obs.Json.to_string json)
      | Some _ | None -> ()
    in
    { observe; say; finish }
  in
  Term.(const make $ trace_arg $ metrics_flag)

(* --scenario NAME (repeatable), resolved against the benchmark corpus;
   [None] when no scenario is named *)
let scenarios_term ~doc =
  let resolve = function
    | [] -> None
    | names ->
        let corpus = Corpus.default () in
        Some
          (List.map
             (fun n ->
               match Corpus.find n corpus with
               | Some s -> s
               | None ->
                   Logs.err (fun k -> k "unknown scenario %S" n);
                   exit 2)
             names)
  in
  Term.(const resolve $ Arg.(value & opt_all string [] & info [ "scenario" ] ~docv:"NAME" ~doc))

let all_if_none = function Some picked -> picked | None -> Corpus.default ()

(* ------------------------------------------------------------------ *)
(* generate                                                             *)

let generate_cmd =
  let kind =
    let kind_enum = Arg.enum [ ("tgff", `Tgff); ("random", `Random) ] in
    Arg.(value & opt kind_enum `Random & info [ "kind" ] ~docv:"KIND" ~doc:"tgff or random.")
  in
  let nodes = Arg.(value & opt positive_int 12 & info [ "nodes" ] ~docv:"N" ~doc:"Vertex count.") in
  let density =
    Arg.(value & opt float 0.2 & info [ "density" ] ~docv:"P" ~doc:"Edge probability (random).")
  in
  let preset =
    Arg.(
      value
      & opt (some (enum Noc_tgff.Tgff.presets)) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:"TGFF preset: automotive, consumer, networking, office, telecom.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run kind nodes density preset seed out =
    let rng = Noc_util.Prng.create ~seed in
    let acg =
      match kind with
      | `Random ->
          Acg.uniform ~volume:64 ~bandwidth:0.2
            (Noc_graph.Generators.erdos_renyi ~rng ~n:nodes ~p:density)
      | `Tgff ->
          let params =
            match preset with
            | Some p -> p
            | None -> { Noc_tgff.Tgff.default_params with tasks = nodes }
          in
          Acg.of_tgff (Noc_tgff.Tgff.generate ~rng params)
    in
    match out with
    | Some path ->
        Acg_io.write_file ~path acg;
        Logs.app (fun k ->
            k "wrote %s (%d cores, %d flows)" path (Acg.num_cores acg) (Acg.num_flows acg))
    | None -> print_string (Acg_io.to_string acg)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate an application characterization graph.")
    Term.(const run $ kind $ nodes $ density $ preset $ seed_arg $ out)

(* ------------------------------------------------------------------ *)
(* decompose                                                            *)

let decompose_cmd =
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print search statistics.")
  in
  let run file s stats o =
    let acg = load_acg file in
    let options = s.options acg in
    let d, st =
      Bb.decompose ~options ~budget:s.budget ~observe:o.observe ~library:s.library acg
    in
    (* the listing ends in the newline [say] adds *)
    o.say "%s" (String.trim (Format.asprintf "%a" (Decomp.pp_with_cost options.Bb.cost acg) d));
    warn_anytime st;
    if stats then
      o.say "nodes=%d matches=%d leaves=%d pruned=%d incumbents=%d elapsed=%.3fs" st.Bb.nodes
        st.Bb.matches_tried st.Bb.leaves st.Bb.pruned st.Bb.incumbents st.Bb.elapsed_s;
    o.finish
      ~json:
        (Obs.Json.Obj
           [
             ("search", Bb.stats_to_json st);
             ("observer", Obs.Json.Obj (Obs.metrics o.observe));
           ])
      ()
  in
  Cmd.v
    (Cmd.info "decompose" ~doc:"Decompose an ACG into communication primitives.")
    Term.(const run $ acg_file_arg $ search_term $ stats_flag $ output_term)

(* ------------------------------------------------------------------ *)
(* synth                                                                *)

let synth_cmd =
  let dot_out =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the synthesized topology as Graphviz DOT.")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Check the technology's bandwidth and bisection constraints.")
  in
  let run file s dot check o =
    let acg = load_acg file in
    let options = s.options acg in
    let d, stats =
      Bb.decompose ~options ~budget:s.budget ~observe:o.observe ~library:s.library acg
    in
    warn_anytime stats;
    let constraints =
      if check then Some (Noc_core.Constraints.of_technology s.tech) else None
    in
    let report =
      Obs.span o.observe ~cat:"synth" "build-report" (fun () ->
          Noc_core.Report.build ~tech:s.tech ~fp:(Acg.grid_floorplan acg) ?constraints
            ~cost:options.Bb.cost ~acg ~decomposition:d ~stats ())
    in
    o.say "%s" (Noc_core.Report.to_string report);
    (match dot with
    | Some path ->
        let arch = Syn.custom acg d in
        Noc_graph.Dot.write_file ~path
          (Noc_graph.Dot.to_dot ~name:"topology" ~undirected:true arch.Syn.topology);
        Logs.app (fun k -> k "wrote %s" path)
    | None -> ());
    o.finish ~json:(Noc_core.Report.to_json report) ()
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesize the customized architecture for an ACG.")
    Term.(const run $ acg_file_arg $ search_term $ dot_out $ check_flag $ output_term)

(* ------------------------------------------------------------------ *)
(* simulate                                                             *)

let simulate_cmd =
  let acg_file_opt =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"ACG"
          ~doc:
            "ACG file (see Acg_io format).  When omitted, the benchmark corpus is run \
             instead (see $(b,--scenario)).")
  in
  let rows =
    Arg.(
      value & opt (some positive_int) None
      & info [ "rows" ] ~docv:"R"
          ~doc:"Mesh rows (default: the near-square grid over the largest core id).")
  in
  let cols =
    Arg.(
      value & opt (some positive_int) None
      & info [ "cols" ] ~docv:"C"
          ~doc:"Mesh columns (default: the near-square grid over the largest core id).")
  in
  let cycles =
    Arg.(value & opt positive_int 2000 & info [ "cycles" ] ~docv:"N" ~doc:"Injection cycles.")
  in
  let rate =
    Arg.(value & opt float 0.05 & info [ "rate" ] ~docv:"P" ~doc:"Peak injection rate per flow.")
  in
  let policy_arg =
    let policy_enum = Arg.enum [ ("fixed", `Fixed); ("oblivious", `Oblivious) ] in
    Arg.(
      value
      & opt (some' ~none:`Fixed policy_enum) None
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Routing policy: fixed (the architecture's routes) or oblivious (one \
             minimal path drawn per packet at injection).")
  in
  let engine_arg =
    let engine_enum =
      Arg.enum
        (List.map (fun k -> (Noc_sim.Engine.kind_name k, k)) Noc_sim.Engine.all_kinds)
    in
    Arg.(
      value & opt engine_enum Noc_sim.Engine.Coarse
      & info [ "engine" ] ~docv:"PRESET"
          ~doc:
            "Flit-engine preset: $(b,coarse) (one 8-bit flit per link cycle) or \
             $(b,flit) (32-bit flits over byte-serial links).  Both run VOQ routers \
             with round-robin allocation, credit backpressure and the \
             virtual-channel lanes the deadlock analysis prescribes.")
  in
  let scenarios =
    scenarios_term
      ~doc:
        "Corpus scenario to simulate (repeatable; default when no ACG file is \
         given: all).  Each scenario is decomposed, glued and driven with one \
         packet per flow on the selected preset; exits 1 if any scenario fails to \
         drain cleanly."
  in
  let size_flits_arg =
    Arg.(
      value & opt (some positive_int) None
      & info [ "size-flits" ] ~docv:"N"
          ~doc:"Packet size in flits (default: 4 in the corpus bursts, 1 in ACG-file traffic).")
  in
  (* the engine runs with the lanes Deadlock.analyze prescribes, so a
     deadlock on the fixed routes can never be an artefact of too few
     lanes *)
  let create_engine ?policy engine arch =
    Noc_sim.Flitsim.create ~config:(Noc_sim.Engine.prescribed engine arch) ?policy arch
  in
  (* corpus mode: every picked scenario must drain cleanly on the chosen
     preset — the @flit-smoke CI gate runs exactly this with --engine flit *)
  let run_corpus ~engine ~library ~size_flits o picked =
    o.say "%-22s %-8s %-8s %8s %8s %10s %6s" "scenario" "engine" "status" "cycles" "packets"
      "avg lat" "cons";
    let failed = ref false in
    List.iter
      (fun (s : Corpus.scenario) ->
        let acg = s.Corpus.acg in
        let d, _ = Bb.decompose ~observe:o.observe ~library acg in
        let net = create_engine engine (Syn.custom acg d) in
        D.iter_edges
          (fun src dst -> ignore (Noc_sim.Engine.inject ~size_flits net ~src ~dst))
          (Acg.graph acg);
        let verdict = Noc_sim.Engine.run_until_idle net in
        let summary = Noc_sim.Engine.summary net in
        let conserved = Noc_sim.Flitsim.conservation_ok net in
        if
          verdict <> Noc_sim.Engine.Idle
          || summary.Noc_sim.Stats.packets <> Acg.num_flows acg
          || not conserved
        then failed := true;
        o.say "%-22s %-8s %-8s %8d %8d %10.2f %6s" s.Corpus.name
          (Noc_sim.Engine.kind_name engine)
          (Noc_sim.Engine.verdict_name verdict)
          (Noc_sim.Engine.now net) summary.Noc_sim.Stats.packets
          summary.Noc_sim.Stats.avg_latency
          (if conserved then "ok" else "BROKEN"))
      picked;
    o.finish ();
    if !failed then begin
      Logs.err (fun k -> k "simulate: at least one scenario failed to drain cleanly");
      exit 1
    end
  in
  (* the mesh baseline: a given grid must hold every core; an omitted
     side comes from the near-square grid over the largest core id, as
     the service's mesh backend sizes it *)
  let mesh_grid acg rows cols =
    let ids = D.vertices (Acg.graph acg) in
    let min_id = D.Vset.fold min ids 1 and max_id = D.Vset.fold max ids 1 in
    let r0, c0 = Syn.mesh_dims acg in
    let rows = Option.value rows ~default:r0 and cols = Option.value cols ~default:c0 in
    if min_id < 1 then Error (Printf.sprintf "core %d has no mesh tile (ids start at 1)" min_id)
    else if max_id > rows * cols then
      Error (Printf.sprintf "a %dx%d mesh cannot hold core %d" rows cols max_id)
    else Ok (rows, cols)
  in
  let run file library tech rows cols cycles rate policy engine scenarios size_flits seed o =
    match (file, scenarios) with
    | Some _, Some _ -> `Error (true, "an ACG file and --scenario cannot be combined")
    | None, _ when policy <> None -> `Error (true, "--policy needs an ACG file")
    | None, picked ->
        let size_flits = Option.value size_flits ~default:4 in
        `Ok (run_corpus ~engine ~library ~size_flits o (all_if_none picked))
    | Some file, None -> (
        let acg = load_acg file in
        match mesh_grid acg rows cols with
        | Error msg -> `Error (true, msg)
        | Ok (rows, cols) ->
            let d, _ = Bb.decompose ~observe:o.observe ~library acg in
            (* the floorplan must place every mesh tile: routes may pass
               through tiles that host no core *)
            let fp =
              Fp.grid ~cols
                (Fp.uniform_cores ~n:(max (Acg.num_cores acg) (rows * cols)) ~size_mm:2.0)
            in
            let policy =
              match Option.value policy ~default:`Fixed with
              | `Fixed -> Noc_sim.Flitsim.Fixed
              | `Oblivious -> Noc_sim.Flitsim.Oblivious (Noc_util.Prng.create ~seed:(seed + 1))
            in
            o.say "%-12s %8s %10s %10s %12s %10s %8s" "arch" "packets" "avg lat" "thpt"
              "energy (pJ)" "power(mW)" "verdict";
            let arch_metrics =
              List.map
                (fun (name, arch) ->
                  let net = create_engine ~policy engine arch in
                  let rng = Noc_util.Prng.create ~seed in
                  let flows =
                    Noc_sim.Traffic.flows_of_acg ?size_flits ~rate_scale:rate acg
                  in
                  let verdict =
                    Obs.span o.observe ~cat:"sim" name (fun () ->
                        Noc_sim.Traffic.run ~rng ~net ~flows ~cycles ())
                  in
                  let metrics =
                    Noc_sim.Flitsim.metrics net @ Noc_sim.Stats.energy_metrics ~tech ~fp net
                  in
                  (* the activity counters land in the trace too *)
                  if Obs.enabled o.observe then
                    List.iter
                      (fun (key, v) ->
                        Obs.Gauge.set (Obs.gauge o.observe (Printf.sprintf "%s.%s" name key)) v)
                      metrics;
                  let s = Noc_sim.Engine.summary net in
                  o.say "%-12s %8d %10.2f %10.3f %12.1f %10.2f %8s" name s.Noc_sim.Stats.packets
                    s.Noc_sim.Stats.avg_latency s.Noc_sim.Stats.throughput
                    (Noc_sim.Stats.total_energy_pj ~tech ~fp net)
                    (Noc_sim.Stats.avg_power_mw ~tech ~fp net)
                    (Noc_sim.Engine.verdict_name verdict);
                  ( name,
                    Obs.Json.Obj
                      (List.map
                         (fun (k, v) -> (k, Obs.Json.Float v))
                         (Noc_sim.Stats.summary_metrics s @ metrics)) ))
                [ ("customized", Syn.custom acg d); ("mesh", Syn.mesh ~rows ~cols acg) ]
            in
            `Ok (o.finish ~json:(Obs.Json.Obj arch_metrics) ()))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Simulate ACG traffic on customized vs mesh (or drive the benchmark corpus) on \
          the flit engine, with a selectable preset.")
    Term.(
      ret
        (const run $ acg_file_opt $ library_arg $ tech_arg $ rows $ cols $ cycles $ rate
       $ policy_arg $ engine_arg $ scenarios $ size_flits_arg $ seed_arg $ output_term))

(* ------------------------------------------------------------------ *)
(* codesign                                                             *)

let codesign_cmd =
  let rounds =
    Arg.(value & opt positive_int 4 & info [ "rounds" ] ~docv:"N" ~doc:"Co-design rounds.")
  in
  let run file library tech rounds seed =
    let acg = load_acg file in
    let fp = Acg.grid_floorplan acg in
    let rng = Noc_util.Prng.create ~seed in
    let r = Noc_core.Co_design.optimize ~rounds ~rng ~tech ~library ~fp acg in
    List.iter
      (fun it ->
        Format.printf "round %d: energy=%.1f pJ wirelength=%.1f@."
          it.Noc_core.Co_design.round it.Noc_core.Co_design.energy_pj
          it.Noc_core.Co_design.wirelength)
      r.Noc_core.Co_design.history;
    Format.printf "best energy: %.1f pJ@." r.Noc_core.Co_design.energy_pj;
    Format.printf "%a@."
      (Noc_core.Decomposition.pp_with_cost Noc_core.Cost.Edge_count acg)
      r.Noc_core.Co_design.decomposition
  in
  Cmd.v
    (Cmd.info "codesign"
       ~doc:"Jointly optimize the floorplan and the decomposition (Sec. 6 future work).")
    Term.(const run $ acg_file_arg $ library_arg $ tech_arg $ rounds $ seed_arg)

(* ------------------------------------------------------------------ *)
(* aes                                                                  *)

let aes_cmd =
  let run tech =
    let acg = Noc_aes.Distributed.acg () in
    let library = L.default () in
    let d, _ = Bb.decompose ~library acg in
    Format.printf "%a@." (Decomp.pp_with_cost Noc_core.Cost.Edge_count acg) d;
    let fp = Acg.grid_floorplan acg in
    let key = Noc_aes.Aes_core.of_hex "000102030405060708090a0b0c0d0e0f" in
    let pt = Noc_aes.Aes_core.of_hex "00112233445566778899aabbccddeeff" in
    List.iter
      (fun (name, arch) ->
        let config = Noc_aes.Distributed.prototype_config arch in
        let r =
          match Noc_aes.Distributed.encrypt ~config ~arch ~key pt with
          | Ok r -> r
          | Error (`Undrained n) ->
              Logs.err (fun m ->
                  m "%s: distributed AES did not drain (%d packets pending)" name n);
              exit 1
        in
        Format.printf
          "%-12s cycles/block=%4d thpt=%6.1f Mbps lat=%6.2f power=%6.2f mW energy=%9.1f pJ@."
          name r.Noc_aes.Distributed.cycles
          (Noc_aes.Distributed.throughput_mbps
             ~cycles_per_block:r.Noc_aes.Distributed.cycles ~clock_mhz:100.0)
          r.Noc_aes.Distributed.summary.Noc_sim.Stats.avg_latency
          (Noc_sim.Stats.avg_power_mw ~tech ~fp r.Noc_aes.Distributed.net)
          (Noc_sim.Stats.total_energy_pj ~tech ~fp r.Noc_aes.Distributed.net))
      [
        ("mesh", Syn.mesh ~rows:4 ~cols:4 acg);
        ("customized", Syn.custom acg d);
      ]
  in
  Cmd.v
    (Cmd.info "aes" ~doc:"Run the distributed-AES prototype comparison (Section 5.2).")
    Term.(const run $ tech_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                 *)

module Fz = Noc_oracle.Fuzz

let fuzz_cmd =
  let cases_arg =
    Arg.(value & opt positive_int 200 & info [ "cases" ] ~docv:"N" ~doc:"Random ACG cases to run.")
  in
  let smoke_flag =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"CI settings: caps the run at 40 cases — seconds in total.")
  in
  let corpus_arg =
    Arg.(
      value & opt string "test/corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Crash corpus replayed before fuzzing (a missing directory replays \
                nothing).")
  in
  let save_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "save-dir" ] ~docv:"DIR"
          ~doc:"Where shrunk counterexamples are written (default: the corpus \
                directory).")
  in
  let replay_only_flag =
    Arg.(
      value & flag & info [ "replay-only" ] ~doc:"Only replay the corpus; no new cases.")
  in
  let property_arg =
    Arg.(
      value & opt_all string []
      & info [ "property" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Restrict to one property (repeatable). Available: %s."
               (String.concat ", " Fz.property_names)))
  in
  let run cases smoke seed corpus save_dir replay_only props library o =
    let corpus_n, corpus_failures = Fz.replay ~observe:o.observe ~library ~dir:corpus () in
    o.say "corpus: %d case%s replayed, %d failure%s" corpus_n
      (if corpus_n = 1 then "" else "s")
      (List.length corpus_failures)
      (if List.length corpus_failures = 1 then "" else "s");
    List.iter (fun (file, d) -> o.say "  CORPUS FAIL %s: %s" file d) corpus_failures;
    let report =
      if replay_only then None
      else begin
        let cases = if smoke then min cases 40 else cases in
        let properties = match props with [] -> None | ps -> Some ps in
        let r = Fz.run ~observe:o.observe ~library ?properties ~seed ~cases () in
        o.say "%s" (Format.asprintf "%a" Fz.pp_report r);
        let dir = Option.value save_dir ~default:corpus in
        List.iter
          (fun f ->
            match Fz.save_failure ~dir f with
            | path -> o.say "  saved %s" path
            | exception Sys_error m ->
                Logs.warn (fun k -> k "could not save counterexample: %s" m))
          r.Fz.failures;
        Some r
      end
    in
    let fuzz_json =
      match report with
      | None -> Obs.Json.Null
      | Some r ->
          Obs.Json.Obj
            [
              ("cases", Obs.Json.Int r.Fz.cases);
              ("properties", Obs.Json.Int r.Fz.properties);
              ("failures", Obs.Json.Int (List.length r.Fz.failures));
              ("shrink_steps", Obs.Json.Int r.Fz.shrink_steps);
              ("elapsed_s", Obs.Json.Float r.Fz.elapsed_s);
            ]
    in
    o.finish
      ~json:
        (Obs.Json.Obj
           [
             ("corpus_cases", Obs.Json.Int corpus_n);
             ("corpus_failures", Obs.Json.Int (List.length corpus_failures));
             ("fuzz", fuzz_json);
             ("metrics", Obs.Json.Obj (Obs.metrics o.observe));
           ])
      ();
    let failed =
      corpus_failures <> []
      || (match report with Some r -> r.Fz.failures <> [] | None -> false)
    in
    if failed then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing against the reference oracles: replay the crash corpus, \
          then run random ACGs through every property (decomposition vs exhaustive \
          optimum, bisection vs brute force, VF2 vs naive enumeration, cost \
          recomputation, CDG deadlock check, Eq. 2 partition, route validity), \
          shrinking and saving any counterexample.  Exits 1 on any failure.")
    Term.(
      const run $ cases_arg $ smoke_flag $ seed_arg $ corpus_arg $ save_dir_arg
      $ replay_only_flag $ property_arg $ library_arg $ output_term)

(* ------------------------------------------------------------------ *)
(* faults                                                               *)

module Campaign = Noc_resil.Campaign

let faults_cmd =
  let campaign_arg =
    let campaign_enum = Arg.enum [ ("single-link", `Single); ("multi-link", `Multi) ] in
    Arg.(
      value & opt campaign_enum `Single
      & info [ "campaign" ] ~docv:"KIND"
          ~doc:"single-link (exhaustive, one run per physical link) or multi-link \
                (sampled simultaneous failures).")
  in
  let links_arg =
    Arg.(
      value & opt positive_int 2
      & info [ "links" ] ~docv:"K" ~doc:"Simultaneous link failures per multi-link run.")
  in
  let samples_arg =
    Arg.(
      value & opt positive_int 20
      & info [ "samples" ] ~docv:"N" ~doc:"Sampled fault sets per multi-link campaign.")
  in
  let scenarios =
    scenarios_term ~doc:"Restrict to one corpus scenario (repeatable; default: all)."
  in
  let harden_flag =
    Arg.(
      value & flag
      & info [ "harden" ]
          ~doc:"Add minimum-cost spare links (Eq. 1 link cost) until no single link \
                failure can disconnect a flow, then run the campaign on the hardened \
                architecture.")
  in
  let run campaign links samples picked harden seed library o =
    let spec =
      match campaign with
      | `Single -> Campaign.Single_link
      | `Multi -> Campaign.Multi_link { links; samples }
    in
    o.say "%-20s %6s %6s %8s %8s %6s %6s %9s" "scenario" "links" "runs" "min dlv" "max lat"
      "disc" "crit" "survives";
    let reports =
      List.map
        (fun (s : Corpus.scenario) ->
          let acg = s.Corpus.acg in
          let d, _ = Bb.decompose ~observe:o.observe ~library acg in
          let arch = Syn.custom acg d in
          let arch, spares =
            if harden then begin
              let tech = Tech.cmos_180nm and fp = Acg.grid_floorplan acg in
              let arch', spares = Syn.harden ~tech ~fp arch in
              List.iter
                (fun (a, b) ->
                  Logs.info (fun k -> k "%s: spare link %d-%d" s.Corpus.name a b))
                spares;
              (arch', spares)
            end
            else (arch, [])
          in
          let rep = Campaign.run ~observe:o.observe ~name:s.Corpus.name ~seed ~spec acg arch in
          o.say "%-20s %6d %6d %8.3f %8.2f %6d %6d %9s" rep.Campaign.scenario
            (List.length (Noc_resil.Fault.undirected_links arch))
            (List.length rep.Campaign.runs)
            rep.Campaign.min_delivered_fraction rep.Campaign.max_latency_factor
            rep.Campaign.worst_disconnected_pairs rep.Campaign.critical_links
            (if rep.Campaign.survives_all then "yes" else "NO");
          (* the worst offenders, for targeted hardening *)
          List.iteri
            (fun i (c : Campaign.link_criticality) ->
              if i < 3 && (c.Campaign.delivered_fraction < 1.0 || c.Campaign.disconnected_pairs > 0)
              then
                o.say "  critical link %d-%d: delivered %.3f, %d pair(s) cut"
                  (fst c.Campaign.link) (snd c.Campaign.link) c.Campaign.delivered_fraction
                  c.Campaign.disconnected_pairs)
            rep.Campaign.criticality;
          (rep, spares))
        (all_if_none picked)
    in
    let report_json ((rep : Campaign.report), spares) =
      ( rep.Campaign.scenario,
        Obs.Json.Obj
          [
            ("runs", Obs.Json.Int (List.length rep.Campaign.runs));
            ("min_delivered_fraction", Obs.Json.Float rep.Campaign.min_delivered_fraction);
            ("max_latency_factor", Obs.Json.Float rep.Campaign.max_latency_factor);
            ("worst_disconnected_pairs", Obs.Json.Int rep.Campaign.worst_disconnected_pairs);
            ("critical_links", Obs.Json.Int rep.Campaign.critical_links);
            ("survives_all", Obs.Json.Bool rep.Campaign.survives_all);
            ("stranded", Obs.Json.Int rep.Campaign.stranded_total);
            ( "spares",
              Obs.Json.List
                (List.map (fun (a, b) -> Obs.Json.List [ Obs.Json.Int a; Obs.Json.Int b ]) spares)
            );
          ] )
    in
    o.finish
      ~json:
        (Obs.Json.Obj
           (List.map report_json reports @ [ ("metrics", Obs.Json.Obj (Obs.metrics o.observe)) ]))
      ();
    (* a stranded packet survived the faults but was never delivered: the
       rerouted tables deadlocked, which no degraded mode may do *)
    let stranded =
      List.fold_left (fun n ((r : Campaign.report), _) -> n + r.Campaign.stranded_total) 0 reports
    in
    if stranded > 0 then begin
      Logs.err (fun k -> k "%d surviving packet(s) never delivered" stranded);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Fault-injection campaigns on the synthesized corpus architectures: fail links \
          (exhaustively one at a time, or sampled multi-link sets), reroute around \
          them, run one burst per fault set on the flit engine, measure delivered \
          fraction, latency degradation and per-link criticality, and optionally \
          harden the topology with spare links until any single link failure is \
          survivable.  Exits 1 if a surviving packet is never delivered.")
    Term.(
      const run $ campaign_arg $ links_arg $ samples_arg $ scenarios $ harden_flag $ seed_arg
      $ library_arg $ output_term)

(* ------------------------------------------------------------------ *)
(* bench                                                                *)

let resolve_rev = function
  | Some r -> r
  | None -> (
      match Sys.getenv_opt "NOCSYNTH_REV" with
      | Some r when r <> "" -> r
      | _ -> (
          (* best effort: outside a git checkout (or a sandboxed build) the
             record is simply stamped "dev" *)
          try
            let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
            let line = try input_line ic with End_of_file -> "" in
            match Unix.close_process_in ic with
            | Unix.WEXITED 0 when line <> "" -> line
            | _ -> "dev"
          with _ -> "dev"))

let bench_cmd =
  let smoke_flag =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI settings: single domain, short sweeps — seconds for the whole corpus.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Record file to write (default BENCH_<rev>.json).")
  in
  let rev_arg =
    Arg.(
      value & opt (some string) None
      & info [ "rev" ] ~docv:"REV"
          ~doc:"Revision stamp for the record (default: \\$NOCSYNTH_REV, then git, then \
                'dev').")
  in
  let tier_arg =
    let tier_enum =
      Arg.enum
        [ ("default", `Default); ("scale", `Scale); ("scale-smoke", `Scale_smoke) ]
    in
    Arg.(
      value & opt tier_enum `Default
      & info [ "tier" ] ~docv:"TIER"
          ~doc:
            "Corpus tier: the persisted default corpus, the 64-1024-core scaling tier \
             (scale), or its 64/128-core CI smoke prefix (scale-smoke).  The scale \
             tiers run budget-bounded anytime searches with the greedy fallback and \
             skip the simulation stages.")
  in
  let run smoke tier out rev library o =
    let settings, scenarios, mode =
      match tier with
      | `Scale -> (Runner.scale, Corpus.scale (), "scale")
      | `Scale_smoke -> (Runner.scale_smoke, Corpus.scale_smoke (), "scale-smoke")
      | `Default ->
          ( (if smoke then Runner.smoke else Runner.full),
            Corpus.default (),
            if smoke then "smoke" else "full" )
    in
    let rev = resolve_rev rev in
    o.say "%s" (Format.asprintf "%a" Runner.pp_header ());
    let results =
      List.map
        (fun sc ->
          let r = Runner.run ~observe:o.observe ~library ~settings sc in
          o.say "%s" (Format.asprintf "%a" Runner.pp_row r);
          r)
        scenarios
    in
    let record = Noc_benchkit.Record.to_json ~rev ~mode results in
    let path = Option.value out ~default:(Printf.sprintf "BENCH_%s.json" rev) in
    Noc_benchkit.Record.write ~path record;
    Logs.info (fun k -> k "wrote %s (%d scenarios)" path (List.length results));
    o.finish ~json:record ()
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the benchmark corpus (decompose, synth, deadlock check, flit-engine \
          burst, load sweep) and persist a BENCH_<rev>.json record; compare two \
          records with bench/compare.exe.")
    Term.(const run $ smoke_flag $ tier_arg $ out $ rev_arg $ library_arg $ output_term)

(* ------------------------------------------------------------------ *)
(* explore                                                              *)

module Explore = Noc_explore.Explore

let explore_cmd =
  let scenarios =
    scenarios_term ~doc:"Restrict to one corpus scenario (repeatable; default: all 12)."
  in
  let points_arg =
    Arg.(
      value & opt non_negative_int 64
      & info [ "points" ] ~docv:"N"
          ~doc:"Design points evaluated per scenario (0 = the whole space).")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the fronts to FILE: CSV when the name ends in .csv, JSON \
                otherwise (default: JSON on stdout with --metrics, table only \
                without).")
  in
  let baseline_arg =
    Arg.(
      value & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Gate against a committed front record (a previous --out JSON file): \
                exit 1 when any scenario's front is empty, smaller than the \
                baseline's, or covers less hypervolume.")
  in
  (* the front record is a set of per-scenario Explore.to_json objects *)
  let set_json results =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "nocsynth-explore-set");
        ("version", Obs.Json.Int 1);
        ( "scenarios",
          Obs.Json.List
            (List.map (fun (name, axes, r) -> Explore.to_json ~name axes r) results) );
      ]
  in
  let load_baseline path =
    let fail why =
      Logs.err (fun k -> k "%s: %s" path why);
      exit 2
    in
    match Obs.Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | Error (`Msg m) -> fail m
    | Ok json -> (
        match Obs.Json.member "scenarios" json with
        | Some (Obs.Json.List scenarios) ->
            List.filter_map
              (fun s ->
                match
                  ( Obs.Json.member "scenario" s,
                    Obs.Json.member "front_size" s,
                    Option.bind (Obs.Json.member "hypervolume" s) Obs.Json.to_float )
                with
                | Some (Obs.Json.Str name), Some (Obs.Json.Int fs), Some hv ->
                    Some (name, (fs, hv))
                | _ -> None)
              scenarios
        | _ -> fail "not a nocsynth-explore-set record")
  in
  let run picked points seed domains library o out baseline =
    (* worker count, like everywhere else, respects the machine clamp; the
       front does not depend on it, only wall-clock does *)
    let domains = min domains (Bb.domain_cap ()) in
    o.say "%-22s %6s %7s %6s %14s" "scenario" "space" "points" "front" "hypervolume";
    let results =
      List.map
        (fun { Corpus.name; acg; _ } ->
          let axes = Explore.axes ~seed ~library acg in
          let r = Explore.run ~observe:o.observe ~domains ~points ~seed axes acg in
          o.say "%-22s %6d %7d %6d %14.2f" name r.Explore.space
            (Array.length r.Explore.evaluated)
            (List.length r.Explore.front)
            r.Explore.hypervolume;
          (name, axes, r))
        (all_if_none picked)
    in
    (match out with
    | None -> ()
    | Some path ->
        let text =
          if Filename.check_suffix path ".csv" then
            String.concat "\n"
              ((Explore.csv_header
               :: List.concat_map
                    (fun (name, axes, r) -> Explore.to_csv_rows ~name axes r)
                    results)
              @ [ "" ])
          else Obs.Json.to_string (set_json results) ^ "\n"
        in
        Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
        Logs.info (fun k -> k "wrote %s (%d scenario(s))" path (List.length results)));
    o.finish ~json:(set_json results) ();
    let failures = ref 0 in
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          incr failures;
          Logs.err (fun k -> k "%s" m))
        fmt
    in
    List.iter
      (fun (name, _, (r : Explore.result)) ->
        if r.Explore.front = [] then fail "%s: empty Pareto front" name)
      results;
    (match baseline with
    | None -> ()
    | Some path ->
        let base = load_baseline path in
        List.iter
          (fun (name, _, (r : Explore.result)) ->
            match List.assoc_opt name base with
            | None -> Logs.warn (fun k -> k "%s: not in baseline %s" name path)
            | Some (base_fs, base_hv) ->
                let fs = List.length r.Explore.front in
                if fs < base_fs then
                  fail "%s: front size %d below baseline %d" name fs base_fs;
                (* exact reruns reproduce the baseline bit-for-bit; the
                   epsilon only forgives float noise, not regressions *)
                let tol = 1e-6 *. Float.max 1.0 (Float.abs base_hv) in
                if r.Explore.hypervolume < base_hv -. tol then
                  fail "%s: hypervolume %.6f below baseline %.6f" name
                    r.Explore.hypervolume base_hv)
          results);
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Multi-objective design-space exploration: sample the mapping x \
          library-subset x bandwidth-provisioning space of each corpus scenario, \
          score every point as (energy, latency, area) through the decomposition \
          pipeline, and report the Pareto front and its dominated hypervolume.  \
          Deterministic for a fixed seed regardless of --domains.  With --baseline, \
          exits 1 on an empty front or a front-size/hypervolume regression.")
    Term.(
      const run $ scenarios $ points_arg $ seed_arg $ domains_arg $ library_arg $ output_term
      $ out_arg $ baseline_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)

let serve_cmd =
  let replay_arg =
    Arg.(
      value & opt (some positive_int) None
      & info [ "replay" ] ~docv:"N"
          ~doc:
            "Load-test mode: replay 3*N requests (per base ACG one fresh request, one \
             duplicate and one vertex-permuted copy) through a fresh daemon and report \
             requests/sec and cache hit rates, instead of serving stdin.")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Replay base ACGs from this directory instead of the seeded generator.")
  in
  let cache_arg =
    Arg.(
      value & opt non_negative_int 1024
      & info [ "cache-capacity" ] ~docv:"N" ~doc:"Result-cache capacity (LRU entries).")
  in
  let assert_hit_arg =
    Arg.(
      value & opt (some float) None
      & info [ "assert-hit-rate" ] ~docv:"R"
          ~doc:
            "Load-test gate: exit 1 when the repeated-half hit rate is below R or a \
             cache hit is not byte-identical to its original miss.")
  in
  let chaos_arg =
    Arg.(
      value & opt (some positive_int) None
      & info [ "chaos" ] ~docv:"N"
          ~doc:
            "Chaos mode: drive N seeded adversarial requests (malformed inputs, \
             starved budgets, injected faults, overload bursts) through a fresh \
             daemon and gate the crash-only contract — zero daemon deaths, one typed \
             reply per request, preserved cache behaviour for the well-formed subset. \
             Exits 1 when the gate fails.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt positive_int Serve.Daemon.default_config.Serve.Daemon.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission bound: batch requests beyond the first N are shed with a typed \
             'shed' error instead of queued.")
  in
  let max_cores_arg =
    Arg.(
      value & opt positive_int Serve.Daemon.default_config.Serve.Daemon.max_cores
      & info [ "max-cores" ] ~docv:"N"
          ~doc:
            "Input-size guard: ACGs with more than N cores are rejected with a typed \
             'bad_request' error before any search work.")
  in
  let snapshot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "snapshot" ] ~docv:"PATH"
          ~doc:
            "Crash-only cache persistence: restore the result cache from PATH at \
             startup (a corrupt or missing snapshot is discarded for a cold start, \
             never an error) and write a checksummed snapshot back on clean exit.")
  in
  let run replay corpus cache_capacity assert_hit chaos max_inflight max_cores snapshot
      seed budget library o =
    match (chaos, replay) with
    | Some requests, _ ->
        let stats =
          Serve.Chaos.run ~seed ~requests ~max_inflight ~cache_capacity ~observe:o.observe ()
        in
        o.say "%s" (Format.asprintf "%a" Serve.Chaos.pp stats);
        o.finish
          ~json:
            (Obs.Json.Obj
               [
                 ("chaos", Serve.Chaos.to_json stats);
                 ("metrics", Obs.Json.Obj (Obs.metrics o.observe));
               ])
          ();
        (match Serve.Chaos.gate stats with
        | Ok () ->
            Logs.info (fun k ->
                k "chaos gate passed: %d requests, %d replies, 0 deaths" stats.requests
                  stats.Serve.Chaos.replies)
        | Error msg ->
            Logs.err (fun k -> k "chaos gate failed: %s" msg);
            exit 1)
    | None, Some cases ->
        let stats =
          Serve.Replay.run ~seed ~cases ?corpus_dir:corpus ~cache_capacity ~library
            ~budget ~observe:o.observe ()
        in
        o.say "%s" (Format.asprintf "%a" Serve.Replay.pp stats);
        o.finish
          ~json:
            (Obs.Json.Obj
               [
                 ("requests", Obs.Json.Int stats.Serve.Replay.requests);
                 ("unique", Obs.Json.Int stats.Serve.Replay.unique);
                 ("rps", Obs.Json.Float stats.Serve.Replay.rps);
                 ("hit_rate", Obs.Json.Float stats.Serve.Replay.hit_rate);
                 ("repeated_hit_rate", Obs.Json.Float stats.Serve.Replay.repeated_hit_rate);
                 ("byte_identical", Obs.Json.Bool stats.Serve.Replay.byte_identical);
                 ("metrics", Obs.Json.Obj (Obs.metrics o.observe));
               ])
          ();
        (match assert_hit with
        | Some r
          when stats.Serve.Replay.repeated_hit_rate < r || not stats.Serve.Replay.byte_identical
          ->
            Logs.err (fun k ->
                k "replay gate failed: repeated-half hit rate %.2f (want >= %.2f), \
                   byte-identical %b"
                  stats.Serve.Replay.repeated_hit_rate r stats.Serve.Replay.byte_identical);
            exit 1
        | Some _ | None -> ())
    | None, None ->
        let config =
          { Serve.Daemon.default_config with Serve.Daemon.max_inflight; max_cores }
        in
        let daemon = Serve.Daemon.create ~cache_capacity ~config ~observe:o.observe () in
        (match snapshot with
        | None -> ()
        | Some path -> (
            match Serve.Cache.restore (Serve.Daemon.cache daemon) ~path with
            | Ok n -> Logs.info (fun k -> k "restored %d cache entr(ies) from %s" n path)
            | Error (`Msg m) ->
                Logs.warn (fun k -> k "cold start, snapshot discarded: %s" m)));
        let ls = Serve.Daemon.run_loop ~library ~budget daemon stdin stdout in
        let c = Serve.Daemon.cache_stats daemon in
        Logs.info (fun k ->
            k
              "served %d request(s) (%d ok / %d errors / %d shed); cache: %d hits / %d \
               misses / %d evictions"
              ls.Serve.Daemon.served ls.Serve.Daemon.ok ls.Serve.Daemon.errors
              ls.Serve.Daemon.shed c.Serve.Cache.hits c.Serve.Cache.misses
              c.Serve.Cache.evictions);
        (match snapshot with
        | None -> ()
        | Some path ->
            Serve.Cache.snapshot (Serve.Daemon.cache daemon) ~path;
            Logs.info (fun k -> k "cache snapshot written to %s" path));
        o.finish ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the synthesis service: read ACG file paths from stdin (one per line, \
          'quit' or EOF to stop) and answer each with a JSON response comparing the \
          synthesized custom topology against 2D-mesh and sparse-Hamming regular \
          alternatives.  Identical and isomorphic requests are answered from a \
          content-addressed cache keyed by the canonical ACG hash.  Every request \
          gets exactly one reply: failures are typed JSON errors (bad_request, \
          over_budget, shed, internal), never a dead daemon.  With --replay, \
          load-test the pipeline instead and report requests/sec and cache hit \
          rates.  With --chaos, run the seeded adversarial gate.")
    Term.(
      const run $ replay_arg $ corpus_arg $ cache_arg $ assert_hit_arg $ chaos_arg
      $ max_inflight_arg $ max_cores_arg $ snapshot_arg $ seed_arg $ budget_term
      $ library_name_arg $ output_term)

let main =
  Cmd.group
    (Cmd.info "nocsynth" ~version:"1.0.0"
       ~doc:"Energy- and performance-driven NoC communication architecture synthesis")
    [
      generate_cmd;
      decompose_cmd;
      synth_cmd;
      simulate_cmd;
      codesign_cmd;
      aes_cmd;
      bench_cmd;
      explore_cmd;
      fuzz_cmd;
      faults_cmd;
      serve_cmd;
    ]

let () =
  setup_logs ();
  exit (Cmd.eval main)
