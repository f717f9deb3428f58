module D = Noc_graph.Digraph
module Engine = Noc_sim.Engine
module Obs = Noc_obs.Obs

type spec =
  | Single_link
  | Multi_link of { links : int; samples : int }
  | Fault_sets of Fault.t list list

type run_result = {
  faults : Fault.t list;
  injected : int;
  delivered : int;
  dropped : int;
  stranded : int;
  delivered_fraction : float;
  avg_latency : float;
  latency_factor : float;
  disconnected_pairs : int;
  retries : int;
  cycles : int;
  engine_ok : bool;
}

type link_criticality = {
  link : int * int;
  delivered_fraction : float;
  latency_factor : float;
  disconnected_pairs : int;
}

type report = {
  scenario : string;
  baseline : run_result;
  runs : run_result list;
  criticality : link_criticality list;
  min_delivered_fraction : float;
  max_latency_factor : float;
  worst_disconnected_pairs : int;
  critical_links : int;
  survives_all : bool;
  stranded_total : int;
  engine_validated : bool;
}

(* One run on the campaign's engine [net], reset onto the degraded
   architecture.  The flows are filtered to the ACG's: the tables may
   route more. *)
let burst ~size_flits ~max_cycles net acg arch faults =
  let out = Reroute.apply arch ~faults in
  Noc_sim.Flitsim.reset net out.Reroute.arch;
  let g = Noc_core.Acg.graph acg in
  let in_acg = List.filter (fun (s, d) -> D.mem_edge g s d) in
  let flows = in_acg (out.Reroute.kept @ out.Reroute.rerouted) in
  let dropped = List.length (in_acg out.Reroute.disconnected) in
  List.iter (fun (src, dst) -> ignore (Engine.inject ~size_flits net ~src ~dst)) flows;
  let verdict = Engine.run_until_idle ~max_cycles net in
  let summary = Engine.summary net in
  let delivered = summary.Noc_sim.Stats.packets in
  let injected = List.length flows + dropped in
  {
    faults;
    injected;
    delivered;
    dropped;
    stranded = List.length flows - delivered;
    delivered_fraction =
      (if injected = 0 then 1.0 else float_of_int delivered /. float_of_int injected);
    avg_latency = summary.Noc_sim.Stats.avg_latency;
    latency_factor = 1.0 (* filled in against the baseline below *);
    disconnected_pairs = List.length out.Reroute.disconnected;
    retries = 0;
    cycles = Engine.now net;
    engine_ok = verdict = Engine.Idle && Noc_sim.Flitsim.conservation_ok net;
  }

let fault_sets ~seed ~spec arch =
  match spec with
  | Single_link -> Fault.single_link_campaign arch
  | Multi_link { links; samples } ->
      let rng = Noc_util.Prng.create ~seed in
      Fault.multi_link_campaign ~rng ~links ~samples arch
  | Fault_sets sets -> sets

(* One engine per campaign, built on the fault-free fabric: every fault
   set's topology is a subgraph of it, so each burst only resets it. *)
let run ?(observe = Obs.disabled) ?(validate_engine = Engine.Coarse) ?(size_flits = 2)
    ?(max_cycles = 200_000) ~name ~seed ~spec acg arch =
  Obs.span observe ~cat:"resil" ("resil." ^ name) @@ fun () ->
  let net = Engine.create validate_engine arch in
  let run_one = burst ~size_flits ~max_cycles net acg arch in
  let baseline = run_one [] in
  let relative r =
    if r.avg_latency > 0.0 && baseline.avg_latency > 0.0 then
      { r with latency_factor = r.avg_latency /. baseline.avg_latency }
    else r
  in
  let runs = List.map (fun fs -> relative (run_one fs)) (fault_sets ~seed ~spec arch) in
  let criticality =
    match spec with
    | Multi_link _ | Fault_sets _ -> []
    | Single_link ->
        List.filter_map
          (fun r ->
            match r.faults with
            | [ Fault.Link (u, v) ] ->
                Some
                  {
                    link = (u, v);
                    delivered_fraction = r.delivered_fraction;
                    latency_factor = r.latency_factor;
                    disconnected_pairs = r.disconnected_pairs;
                  }
            | _ -> None)
          runs
        |> List.sort (fun a b ->
               compare
                 (a.delivered_fraction, -.a.latency_factor, -a.disconnected_pairs, a.link)
                 (b.delivered_fraction, -.b.latency_factor, -b.disconnected_pairs, b.link))
  in
  let fold f init (proj : run_result -> _) =
    List.fold_left (fun acc r -> f acc (proj r)) init runs
  in
  let min_df = fold min 1.0 (fun r -> r.delivered_fraction) in
  let max_lf = fold max 1.0 (fun r -> r.latency_factor) in
  let worst_disc = fold max 0 (fun r -> r.disconnected_pairs) in
  let critical =
    List.length
      (List.filter
         (fun (r : run_result) -> r.delivered_fraction < 1.0 || r.disconnected_pairs > 0)
         runs)
  in
  let stranded_total = fold ( + ) baseline.stranded (fun r -> r.stranded) in
  let survives_all =
    List.for_all (fun (r : run_result) -> r.delivered_fraction >= 1.0 && r.stranded = 0) runs
  in
  let engine_validated =
    baseline.engine_ok && List.for_all (fun (r : run_result) -> r.engine_ok) runs
  in
  if Obs.enabled observe then begin
    Obs.Counter.add (Obs.counter observe "resil.runs") (List.length runs);
    Obs.Counter.add (Obs.counter observe "resil.dropped") (fold ( + ) 0 (fun r -> r.dropped));
    Obs.Counter.add (Obs.counter observe "resil.stranded") stranded_total;
    Obs.Gauge.set
      (Obs.gauge observe (Printf.sprintf "resil.%s.min_delivered_fraction" name))
      min_df;
    Obs.Gauge.set
      (Obs.gauge observe (Printf.sprintf "resil.%s.max_latency_factor" name))
      max_lf
  end;
  {
    scenario = name;
    baseline;
    runs;
    criticality;
    min_delivered_fraction = min_df;
    max_latency_factor = max_lf;
    worst_disconnected_pairs = worst_disc;
    critical_links = critical;
    survives_all;
    stranded_total;
    engine_validated;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "%s: %d fault sets, min delivered %.3f, max latency x%.2f, worst disconnected %d, \
     %d critical, %s%s"
    r.scenario (List.length r.runs) r.min_delivered_fraction r.max_latency_factor
    r.worst_disconnected_pairs r.critical_links
    (if r.survives_all then "survives all" else "degrades")
    (if r.stranded_total > 0 then Printf.sprintf " (%d STRANDED)" r.stranded_total else "")
