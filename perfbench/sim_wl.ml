(* The two simulation workloads.  Their set-up synthesizes the
   architectures (decompose -> [Synthesis.custom] -> [Deadlock.analyze],
   plus the backend scoring behind [energy_vs_mesh]); the timed loop then
   runs only [lib/sim] ([sim-sweep]) or [lib/resil] with its engines
   ([fault-campaign]).  One operation is one simulation or one campaign. *)

module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Syn = Noc_core.Synthesis
module Engine = Noc_sim.Engine
module Campaign = Noc_resil.Campaign
module Prng = Noc_util.Prng
module Corpus = Noc_benchkit.Corpus
open Workload

type arch = { name : string; acg : Acg.t; arch : Syn.t; edges : (int * int) list }

let library = Noc_primitives.Library.default ()

let build tr (name, acg) =
  let d, st =
    Trace.span tr "bb.decompose" (fun () ->
        Bb.decompose ~budget:Bb.Budget.(default |> with_max_nodes 20_000) ~library acg)
  in
  count_search tr st;
  let arch = Trace.span tr "synthesis.custom" (fun () -> Syn.custom acg d) in
  ignore (Trace.span tr "deadlock.analyze" (fun () -> Noc_core.Deadlock.analyze arch));
  let backends =
    Trace.span tr "backends.compare_all" (fun () -> Noc_serve.Backends.compare_all acg ~custom:arch)
  in
  ( { name; acg; arch; edges = Noc_graph.Digraph.edges (Acg.graph acg) },
    (st.Bb.best_cost, energy "custom" backends, energy "mesh" backends) )

let build_all tr scenarios =
  let built = List.map (build tr) scenarios in
  let sum f = List.fold_left (fun acc (_, q) -> acc +. f q) 0.0 built in
  ( Array.of_list (List.map fst built),
    (sum (fun (c, _, _) -> c), ratio (sum (fun (_, e, _) -> e)) (sum (fun (_, _, m) -> m))) )

let corpus () = List.map (fun s -> (s.Corpus.name, s.Corpus.acg)) (Corpus.default ())

let set_up_layers tr =
  search_layers tr
  @ [
    ("synthesis.custom.ms", Trace.ms tr "synthesis.custom");
    ("deadlock.analyze.ms", Trace.ms tr "deadlock.analyze");
    ("backends.compare_all.ms", Trace.ms tr "backends.compare_all");
  ]

(* ------------------------------------------------------------------ *)
(* sim-sweep *)

(* Bernoulli injection per ACG flow for a fixed window, then a bounded
   drain.  0.01 and 0.02 sit on the zero-load latency plateau of every
   corpus architecture; 0.05 is at the knee and 0.10 well past it. *)
let rates = [| 0.01; 0.02; 0.05; 0.10 |]
let light rate = rate <= 0.02
let window = 300
let drain = 3000
let size_flits = 2

type sim_out = {
  verdict : Engine.verdict;
  injected : int;
  cycles : int;
  hops : int;
  packets : int;
  flits : int;
  latency_sum : float;
  makespan : int;
  conserved : bool;
}

let simulate tr a ~rate ~seed =
  let cls = if light rate then "light" else "saturated" in
  let e = Trace.span tr "engine.create" (fun () -> Engine.create Engine.Flit a.arch) in
  Trace.span tr "engine.run" @@ fun () ->
  let rng = Prng.create ~seed in
  let injected = ref 0 in
  for _ = 1 to window do
    Trace.timed tr "engine.inject" (fun () ->
        List.iter
          (fun (src, dst) ->
            if Prng.bernoulli rng rate then begin
              ignore (Engine.inject ~size_flits e ~src ~dst);
              incr injected
            end)
          a.edges);
    Trace.timed tr ("engine.step." ^ cls) (fun () -> Engine.step e)
  done;
  let verdict =
    Trace.timed tr ("engine.step." ^ cls) (fun () -> Engine.run_until_idle ~max_cycles:drain e)
  in
  Trace.call tr "engine.inject";
  Trace.call tr ("engine.step." ^ cls);
  Trace.count tr "engine.cycles" (float_of_int (Engine.now e));
  Trace.count tr "engine.flit_hops" (float_of_int (Engine.flit_hops e));
  let s = Engine.summary e in
  {
    verdict;
    injected = !injected;
    cycles = Engine.now e;
    hops = Engine.flit_hops e;
    packets = s.Noc_sim.Stats.packets;
    flits = s.Noc_sim.Stats.flits;
    latency_sum = s.Noc_sim.Stats.avg_latency *. float_of_int s.Noc_sim.Stats.packets;
    makespan = s.Noc_sim.Stats.makespan;
    conserved =
      (match Engine.flitsim e with Some f -> Noc_sim.Flitsim.conservation_ok f | None -> false);
  }

let sim_sweep =
  {
    name = "sim-sweep";
    setup =
      (fun ~seed tr ->
        let archs, quality = build_all tr (corpus ()) in
        let rng = Prng.create ~seed in
        let ops =
          Array.concat
            (Array.to_list
               (Array.map
                  (fun a -> Array.map (fun rate -> (a, rate, Prng.int rng 0x3fffffff)) rates)
                  archs))
        in
        let cycles = ref 0 and hops = ref 0 and wall_ms = ref 0.0 in
        let packets = ref 0 and flits = ref 0 and latency = ref 0.0 and makespan = ref 0 in
        let pass tr =
          let outs =
            Array.mapi
              (fun i (a, rate, seed) ->
                Trace.set_op tr i;
                let o, ms = time_ms (fun () -> Trace.span tr "sim" (fun () -> simulate tr a ~rate ~seed)) in
                let drained = o.verdict = Engine.Idle && o.packets = o.injected in
                Check.op
                  (o.conserved && ((not (light rate)) || drained))
                  (fun () ->
                    Printf.sprintf "%s at rate %g: %s, %d of %d packets, conservation %b" a.name
                      rate (Engine.verdict_name o.verdict) o.packets o.injected o.conserved);
                if not tr.Trace.on then begin
                  cycles := !cycles + o.cycles;
                  hops := !hops + o.hops;
                  wall_ms := !wall_ms +. ms;
                  packets := !packets + o.packets;
                  flits := !flits + o.flits;
                  latency := !latency +. o.latency_sum;
                  makespan := !makespan + o.makespan
                end;
                (o, ms))
              ops
          in
          {
            lat_ms = Array.map snd outs;
            fingerprint =
              digest_strings
                (Array.to_list
                   (Array.map
                      (fun (o, _) ->
                        Printf.sprintf "%s/%d/%d/%d/%d/%h" (Engine.verdict_name o.verdict)
                          o.injected o.cycles o.hops o.packets o.latency_sum)
                      outs));
          }
        in
        let record () =
          let s = !wall_ms /. 1e3 in
          [
            ("sim_cycles_per_s", ratio (float_of_int !cycles) s);
            ("flit_hops_per_s", ratio (float_of_int !hops) s);
            ("sim_latency_cycles", ratio !latency (float_of_int !packets));
            ("sim_throughput", ratio (float_of_int !flits) (float_of_int !makespan));
          ]
        in
        let layers tr =
          let per_sim name = ratio (Trace.counted tr name) (float_of_int (Trace.calls tr "sim")) in
          set_up_layers tr
          @ [
              ("engine.create.ms", Trace.ms tr "engine.create");
              ("engine.inject.ms", Trace.ms tr "engine.inject");
              ("engine.step.light.ms", Trace.ms tr "engine.step.light");
              ("engine.step.saturated.ms", Trace.ms tr "engine.step.saturated");
              ("engine.cycles", per_sim "engine.cycles");
              ("engine.flit_hops", per_sim "engine.flit_hops");
            ]
          @ record ()
        in
        { pass; quality = (fun () -> quality); record; layers });
  }

(* ------------------------------------------------------------------ *)
(* fault-campaign *)

(* Exhaustive single-link campaigns over the corpus architectures, and
   [draws] rounds of sampled two-link campaigns over those plus three
   32/64-core scale architectures: 72 campaigns a pass.  Every fault set's
   degraded architecture is validated through the flit engine.  The
   exhaustive campaign on fft16 is the slowest, one in 72, so p99 falls in
   its fastest third: the same work in every pass, most of which host
   noise must slow to move p99.  The 64-core campaigns come next. *)
let draws = 4

let scale () =
  [
    ("scale-tgff-32-s1", Corpus.layered ~seed:1 ~n:32);
    ("scale-er-32-s2", Corpus.random ~seed:2 ~n:32);
    ("scale-tgff-64-s1", Corpus.layered ~seed:1 ~n:64);
  ]

let fault_campaign =
  {
    name = "fault-campaign";
    setup =
      (fun ~seed tr ->
        let corpus = corpus () in
        let archs, quality = build_all tr (corpus @ scale ()) in
        let rng = Prng.create ~seed in
        let ops =
          Array.append
            (Array.map (fun a -> (a, Campaign.Single_link, seed)) (Array.sub archs 0 (List.length corpus)))
            (Array.concat
               (List.init draws (fun _ ->
                    Array.map
                      (fun a ->
                        (a, Campaign.Multi_link { links = 2; samples = 8 }, Prng.int rng 0x3fffffff))
                      archs)))
        in
        let runs = ref 0 and wall_ms = ref 0.0 and min_delivered = ref 1.0 in
        let pass tr =
          let outs =
            Array.mapi
              (fun i (a, spec, seed) ->
                Trace.set_op tr i;
                let rep, ms =
                  time_ms (fun () ->
                      Trace.span tr "campaign.run" (fun () ->
                          Campaign.run ~validate_engine:Engine.Flit ~name:a.name ~seed ~spec a.acg
                            a.arch))
                in
                let all_runs = rep.Campaign.baseline :: rep.Campaign.runs in
                Check.op
                  (rep.Campaign.stranded_total = 0 && rep.Campaign.engine_validated)
                  (fun () ->
                    Printf.sprintf "campaign on %s: %d stranded, engine validated %b" a.name
                      rep.Campaign.stranded_total rep.Campaign.engine_validated);
                let retries =
                  List.fold_left (fun acc (r : Campaign.run_result) -> acc + r.Campaign.retries) 0 all_runs
                in
                if tr.Trace.on then begin
                  Trace.count tr "campaign.runs" (float_of_int (List.length all_runs));
                  Trace.count tr "campaign.retries" (float_of_int retries);
                  Trace.count tr "campaign.stranded" (float_of_int rep.Campaign.stranded_total);
                  (* the validation engines the campaign built, rebuilt
                     from outside so their creation can be timed *)
                  List.iter
                    (fun (r : Campaign.run_result) ->
                      let degraded = Noc_resil.Reroute.apply a.arch ~faults:r.Campaign.faults in
                      ignore
                        (Trace.span tr "engine.create" (fun () ->
                             Engine.create Engine.Flit degraded.Noc_resil.Reroute.arch)))
                    all_runs
                end
                else begin
                  runs := !runs + List.length all_runs;
                  wall_ms := !wall_ms +. ms;
                  min_delivered := Float.min !min_delivered rep.Campaign.min_delivered_fraction
                end;
                ( Printf.sprintf "%d/%h/%d/%d" (List.length all_runs)
                    rep.Campaign.min_delivered_fraction retries
                    (List.fold_left (fun acc (r : Campaign.run_result) -> acc + r.Campaign.cycles) 0 all_runs),
                  ms ))
              ops
          in
          { lat_ms = Array.map snd outs; fingerprint = digest_strings (Array.to_list (Array.map fst outs)) }
        in
        let record () =
          [
            ("fault_runs_per_s", ratio (float_of_int !runs) (!wall_ms /. 1e3));
            ("min_delivered_fraction", !min_delivered);
          ]
        in
        let layers tr =
          let per_campaign name =
            ratio (Trace.counted tr name) (float_of_int (Trace.calls tr "campaign.run"))
          in
          set_up_layers tr
          @ [
              ("campaign.run.ms", Trace.ms tr "campaign.run");
              ("campaign.runs", per_campaign "campaign.runs");
              ("campaign.retries", per_campaign "campaign.retries");
              ("campaign.stranded", per_campaign "campaign.stranded");
              ("engine.create.ms", Trace.ms tr "engine.create");
            ]
          @ record ()
        in
        { pass; quality = (fun () -> quality); record; layers });
  }
