module D = Noc_graph.Digraph
module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Syn = Noc_core.Synthesis
module L = Noc_primitives.Library
module Obs = Noc_obs.Obs
module Prng = Noc_util.Prng

type settings = {
  budget : Bb.Budget.t;
  domains : int list;
  sweep_rates : float list;
  sweep_cycles : int;
  simulate : bool;
  fallback : bool;
  serve : bool;
  explore_points : int;
}

let full =
  {
    budget = Bb.Budget.(default |> with_timeout_s (Some 5.0));
    domains = [ 1; 2 ];
    sweep_rates = [ 0.01; 0.02; 0.05; 0.10 ];
    sweep_cycles = 1000;
    simulate = true;
    fallback = false;
    serve = true;
    explore_points = 24;
  }

let smoke =
  {
    full with
    budget = Bb.Budget.(default |> with_timeout_s (Some 2.0));
    domains = [ 1 ];
    sweep_rates = [ 0.02; 0.08 ];
    sweep_cycles = 200;
  }

(* The scaling tiers run budget-bounded anytime searches (greedy fallback
   seeded, so every scenario returns a feasible decomposition) and skip
   the cycle-accurate simulation stages, whose cost would swamp the
   search-scaling signal at 512-1024 cores. *)
let scale =
  {
    full with
    budget = Bb.Budget.(default |> with_timeout_s (Some 8.0) |> with_max_nodes 2_000_000);
    domains = [ 1; 8 ];
    simulate = false;
    fallback = true;
    serve = false;
    (* a 512-core point evaluation is itself a bounded search; the
       exploration signal lives in the default corpus, not here *)
    explore_points = 0;
  }

let scale_smoke =
  {
    scale with
    budget = Bb.Budget.(default |> with_timeout_s (Some 0.6) |> with_max_nodes 60_000);
    domains = [ 1; 2 ];
  }

type search_sample = {
  domains : int;
  wall_s : float;
  nodes : int;
  pruned : int;
  matches_tried : int;
  best_cost : float;
  timed_out : bool;
  nodes_per_sec : float;
  speedup_vs_d1 : float;  (** wall-clock of the 1st sample / this sample *)
}

type sweep_sample = {
  rate : float;
  avg_latency : float;
  delivered : int;
  throughput : float;
}

type engine_sample = {
  engine : string;
  e_status : string;
  e_cycles : int;
  e_latency : float;
  e_delivered : int;
  e_flit_hops : int;
  e_vc_truncated : bool;
}

type serve_sample = {
  serve_requests : int;
  serve_ok : int;
  serve_hits : int;
  serve_hit_rate : float;
  serve_rps : float;
  serve_byte_identical : bool;
  serve_errors : int;
  serve_shed : int;
  serve_error_rate : float;
  serve_shed_rate : float;
  serve_restore_ok : bool;
}

type explore_sample = {
  explore_space : int;
  explore_points : int;
  front_size : int;
  hypervolume : float;
  explore_steals : int;
}

type resilience_sample = {
  min_delivered_fraction : float;
  max_latency_factor : float;
  worst_disconnected_pairs : int;
  critical_links : int;
  survives_single_link : bool;
  resil_stranded : int;
}

type result = {
  name : string;
  kind : string;
  cores : int;
  flows : int;
  total_volume : int;
  search : search_sample list;
  links : int;
  avg_hops : float;
  max_hops : int;
  energy_pj : float;
  deadlock_free : bool;
  vcs_needed : int;
  engines : engine_sample list;
      (** the flit engine's burst row *)
  sweep : sweep_sample list;
  saturation_rate : float option;
  resilience : resilience_sample;
  serve : serve_sample;
  explore : explore_sample;
}

(* the seed of every seeded stage: load sweep, fault campaign, serve mix
   and exploration *)
let seed = 42

let run ?(observe = Obs.disabled) ?(library = L.default ()) ~(settings : settings)
    (s : Corpus.scenario) =
  let acg = s.acg in
  let options = { Bb.default_options with fallback = settings.fallback } in
  let budget_for domains = Bb.Budget.with_domains domains settings.budget in
  (* decompose once per requested domain count; for completed searches the
     reduction is deterministic, so every sample returns the same
     decomposition and the samples differ only in wall time *)
  let search_runs =
    List.map
      (fun domains ->
        Obs.span observe ~cat:"bench"
          (Printf.sprintf "%s.decompose.d%d" s.name domains)
          (fun () ->
            let (d, st), wall =
              Noc_util.Timer.time (fun () ->
                  Bb.decompose ~options ~budget:(budget_for domains) ~library acg)
            in
            ( d,
              {
                domains;
                wall_s = wall;
                nodes = st.Bb.nodes;
                pruned = st.Bb.pruned;
                matches_tried = st.Bb.matches_tried;
                best_cost = st.Bb.best_cost;
                timed_out = st.Bb.timed_out;
                nodes_per_sec =
                  (if wall > 0.0 then float_of_int st.Bb.nodes /. wall else 0.0);
                speedup_vs_d1 = 1.0 (* filled against the first sample below *);
              } )))
      (match settings.domains with [] -> [ 1 ] | ds -> ds)
  in
  let d = fst (List.hd search_runs) in
  let search =
    let samples = List.map snd search_runs in
    let wall1 = (List.hd samples).wall_s in
    List.map
      (fun sm ->
        { sm with speedup_vs_d1 = (if sm.wall_s > 0.0 then wall1 /. sm.wall_s else 1.0) })
      samples
  in
  let arch = Obs.span observe ~cat:"bench" (s.name ^ ".synth") (fun () -> Syn.custom acg d) in
  let tech = Noc_energy.Technology.cmos_180nm in
  let fp = Acg.grid_floorplan acg in
  let energy_pj = Syn.total_energy ~tech ~fp acg arch in
  let dl =
    Obs.span observe ~cat:"bench" (s.name ^ ".deadlock") (fun () ->
        Noc_core.Deadlock.analyze arch)
  in
  (* one 4-flit packet per ACG flow through the flit engine *)
  let engine_stage kind =
    let kname = Noc_sim.Engine.kind_name kind in
    Obs.span observe ~cat:"bench" (s.name ^ "." ^ kname) (fun () ->
        let net = Noc_sim.Engine.create kind arch in
        D.iter_edges
          (fun src dst ->
            ignore (Noc_sim.Engine.inject ~size_flits:4 net ~src ~dst))
          (Acg.graph acg);
        let status = Noc_sim.Engine.verdict_name (Noc_sim.Engine.run_until_idle net) in
        let summary = Noc_sim.Engine.summary net in
        {
          engine = kname;
          e_status = status;
          e_cycles = Noc_sim.Engine.now net;
          e_latency = summary.Noc_sim.Stats.avg_latency;
          e_delivered = summary.Noc_sim.Stats.packets;
          e_flit_hops = Noc_sim.Engine.flit_hops net;
          e_vc_truncated = Noc_sim.Flitsim.vc_truncated net;
        })
  in
  let engines =
    if not settings.simulate then []
    else [ engine_stage Noc_sim.Engine.Flit ]
  in
  let sweep_points =
    if not settings.simulate then []
    else
      Obs.span observe ~cat:"bench" (s.name ^ ".sweep") (fun () ->
          (* the latency-vs-load knee is the whole point of the sweep, so
             it runs on the byte-serial preset, where serialization stalls
             and HOL blocking move it most *)
          Noc_sim.Sweep.latency_vs_load ~engine:Noc_sim.Engine.Flit
            ~rng:(Prng.create ~seed)
            ~arch ~acg ~cycles:settings.sweep_cycles ~rates:settings.sweep_rates ())
  in
  let resilience =
    if not settings.simulate then
      (* vacuous placeholders: the fault campaign did not run *)
      {
        min_delivered_fraction = 1.0;
        max_latency_factor = 1.0;
        worst_disconnected_pairs = 0;
        critical_links = 0;
        survives_single_link = true;
        resil_stranded = 0;
      }
    else
      let rep =
        Noc_resil.Campaign.run ~observe ~name:s.name ~seed
          ~spec:Noc_resil.Campaign.Single_link acg arch
      in
      {
        min_delivered_fraction = rep.Noc_resil.Campaign.min_delivered_fraction;
        max_latency_factor = rep.Noc_resil.Campaign.max_latency_factor;
        worst_disconnected_pairs = rep.Noc_resil.Campaign.worst_disconnected_pairs;
        critical_links = rep.Noc_resil.Campaign.critical_links;
        survives_single_link = rep.Noc_resil.Campaign.survives_all;
        resil_stranded = rep.Noc_resil.Campaign.stranded_total;
      }
  in
  let serve =
    if not settings.serve then
      (* vacuous placeholders: the serve stage did not run *)
      {
        serve_requests = 0;
        serve_ok = 0;
        serve_hits = 0;
        serve_hit_rate = 0.0;
        serve_rps = 0.0;
        serve_byte_identical = true;
        serve_errors = 0;
        serve_shed = 0;
        serve_error_rate = 0.0;
        serve_shed_rate = 0.0;
        serve_restore_ok = true;
      }
    else
      Obs.span observe ~cat:"bench" (s.name ^ ".serve") (fun () ->
          (* deterministic request mix against a fresh daemon: four
             well-formed requests (fresh, exact duplicate, two permuted
             copies — all one cache key via canonicalization, so 3 of 4
             hit byte-identically), two typed failures (unknown library,
             dead-on-arrival deadline), and a 3-request burst through a
             2-slot admission queue (2 hits + 1 shed).  Then the cache is
             snapshotted, restored into a fresh daemon, and the restored
             daemon must answer a duplicate from cache with the exact same
             bytes. *)
          let module Sd = Noc_serve.Daemon in
          let module Sp = Noc_serve.Proto in
          let rng = Prng.create ~seed in
          let config = { Sd.default_config with max_inflight = 2 } in
          let daemon = Sd.create ~config ~observe () in
          let budget = Bb.Budget.with_domains 1 settings.budget in
          let mix =
            [
              acg;
              acg;
              Noc_serve.Replay.permute ~rng acg;
              Noc_serve.Replay.permute ~rng acg;
            ]
          in
          let error_probes d =
            [
              Sd.solve d (Sp.Request.make ~library:"no-such-library" ~budget acg);
              Sd.solve d
                (Sp.Request.make
                   ~budget:Bb.Budget.(default |> with_timeout_s (Some 0.0))
                   acg);
            ]
          in
          let (outcomes, failures, burst), wall =
            Noc_util.Timer.time (fun () ->
                let outcomes =
                  List.map (fun a -> Sd.solve_exn daemon (Sp.Request.make ~budget a)) mix
                in
                let failures = error_probes daemon in
                let burst =
                  Sd.serve_batch daemon
                    (List.map (fun a -> Sp.Request.make ~budget a) [ acg; acg; acg ])
                in
                (outcomes, failures, burst))
          in
          let ok_outcomes =
            outcomes @ List.filter_map Result.to_option burst
          in
          let requests = List.length outcomes + List.length failures + List.length burst
          in
          let hits =
            List.length
              (List.filter (fun (o : Sd.outcome) -> o.Sd.status = Sd.Hit) ok_outcomes)
          in
          let errors =
            List.length
              (List.filter
                 (function Error (Sp.Error.Shed _) | Ok _ -> false | Error _ -> true)
                 (failures @ burst))
          in
          let shed =
            List.length
              (List.filter
                 (function Error (Sp.Error.Shed _) -> true | _ -> false)
                 burst)
          in
          let first = (List.hd outcomes).Sd.bytes in
          let restore_ok =
            (* crash-only persistence probe: snapshot -> cold daemon ->
               restore -> the duplicate must hit with identical bytes *)
            let path = Filename.temp_file "nocsynth-bench" ".cache" in
            Fun.protect
              ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
              (fun () ->
                Sd.cache daemon |> fun c ->
                Noc_serve.Cache.snapshot c ~path;
                let fresh = Sd.create ~config ~observe () in
                match Noc_serve.Cache.restore (Sd.cache fresh) ~path with
                | Error _ -> false
                | Ok _ -> (
                    match Sd.solve fresh (Sp.Request.make ~budget acg) with
                    | Ok o -> o.Sd.status = Sd.Hit && String.equal o.Sd.bytes first
                    | Error _ -> false))
          in
          let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
          {
            serve_requests = requests;
            serve_ok = List.length ok_outcomes;
            serve_hits = hits;
            serve_hit_rate = ratio hits (List.length ok_outcomes);
            serve_rps = (if wall > 0.0 then float_of_int requests /. wall else 0.0);
            serve_byte_identical =
              List.for_all
                (fun (o : Sd.outcome) -> String.equal o.Sd.bytes first)
                ok_outcomes;
            serve_errors = errors;
            serve_shed = shed;
            serve_error_rate = ratio errors requests;
            serve_shed_rate = ratio shed requests;
            serve_restore_ok = restore_ok;
          })
  in
  let explore =
    if settings.explore_points <= 0 then
      (* vacuous placeholders: the exploration stage did not run *)
      {
        explore_space = 0;
        explore_points = 0;
        front_size = 0;
        hypervolume = 0.0;
        explore_steals = 0;
      }
    else
      Obs.span observe ~cat:"bench" (s.name ^ ".explore") (fun () ->
          (* seed-deterministic whatever the sharding: the front and
             hypervolume are gateable, the steal count is informational *)
          let module E = Noc_explore.Explore in
          let axes = E.axes ~seed ~library acg in
          let r =
            E.run ~observe ~domains:(List.fold_left max 1 settings.domains)
              ~points:settings.explore_points ~seed axes acg
          in
          {
            explore_space = r.E.space;
            explore_points = Array.length r.E.evaluated;
            front_size = List.length r.E.front;
            hypervolume = r.E.hypervolume;
            explore_steals = r.E.steals;
          })
  in
  Obs.Counter.incr (Obs.counter observe "bench.scenarios");
  {
    name = s.name;
    kind = s.kind;
    cores = Acg.num_cores acg;
    flows = Acg.num_flows acg;
    total_volume = Acg.total_volume acg;
    search;
    links = Syn.link_count arch;
    avg_hops = Syn.avg_hops acg arch;
    max_hops = Syn.max_hops arch;
    energy_pj;
    deadlock_free = dl.Noc_core.Deadlock.cdg_cycle = None;
    vcs_needed = dl.Noc_core.Deadlock.vcs_needed;
    engines;
    sweep =
      List.map
        (fun (p : Noc_sim.Sweep.point) ->
          {
            rate = p.Noc_sim.Sweep.rate;
            avg_latency = p.Noc_sim.Sweep.avg_latency;
            delivered = p.Noc_sim.Sweep.delivered;
            throughput = p.Noc_sim.Sweep.throughput;
          })
        sweep_points;
    saturation_rate = Noc_sim.Sweep.saturation_rate sweep_points;
    resilience;
    serve;
    explore;
  }

let engine_row r name = List.find_opt (fun e -> e.engine = name) r.engines

let pp_row ppf r =
  let d1 =
    match r.search with
    | s :: _ -> s
    | [] -> assert false
  in
  (* the speedup column reports the last (widest) domain sample vs d1 *)
  let dn = List.nth r.search (List.length r.search - 1) in
  let lat name = match engine_row r name with Some e -> e.e_latency | None -> 0.0 in
  Format.fprintf ppf
    "%-22s %-6s %5d %6d %9.4f %8d %8d %9.0f %8.0f %5.2fx %11.1f %8.2f %6s %8.0f %5.2f %5d %12.1f"
    r.name r.kind r.cores r.flows d1.wall_s d1.nodes d1.pruned d1.best_cost
    d1.nodes_per_sec dn.speedup_vs_d1 r.energy_pj (lat "flit")
    (match r.saturation_rate with Some x -> Printf.sprintf "%.3f" x | None -> "-")
    r.serve.serve_rps r.serve.serve_hit_rate r.explore.front_size r.explore.hypervolume

let pp_header ppf () =
  Format.fprintf ppf
    "%-22s %-6s %5s %6s %9s %8s %8s %9s %8s %6s %11s %8s %6s %8s %5s %5s %12s"
    "scenario" "kind" "cores" "flows" "wall (s)" "nodes" "pruned" "cost" "nd/s" "spdup"
    "energy (pJ)" "fl lat" "sat" "srv r/s" "hit" "front" "hv"
