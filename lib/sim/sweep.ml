module D = Noc_graph.Digraph

type point = {
  rate : float;
  offered : float;
  delivered : int;
  avg_latency : float;
  throughput : float;
  drained : bool;
}

let latency_vs_load ?(engine = Engine.Coarse) ~rng ~arch ~acg ?(size_flits = 2)
    ?(cycles = 2000) ~rates () =
  let edges = D.edges (Noc_core.Acg.graph acg) in
  List.map
    (fun rate ->
      let rng = Noc_util.Prng.split rng in
      let net = Engine.create engine arch in
      for _ = 1 to cycles do
        List.iter
          (fun (src, dst) ->
            if Noc_util.Prng.bernoulli rng rate then
              ignore (Engine.inject ~size_flits net ~src ~dst))
          edges;
        Engine.step net
      done;
      let drained = Engine.run_until_idle ~max_cycles:200_000 net = Engine.Idle in
      let s = Engine.summary net in
      {
        rate;
        offered = rate *. float_of_int (List.length edges);
        delivered = s.Stats.packets;
        avg_latency = s.Stats.avg_latency;
        throughput = s.Stats.throughput;
        drained;
      })
    rates

let saturation_rate points =
  (* the latency baseline must come from a point that actually delivered
     packets: a leading zero-delivery point reports avg_latency = 0., and a
     fabricated base of 1.0 yields false (or missed) saturation knees *)
  let base =
    match List.find_opt (fun p -> p.delivered > 0) points with
    | None -> infinity
    | Some first -> if first.avg_latency > 0. then first.avg_latency else 1.0
  in
  List.find_map
    (fun p ->
      if (not p.drained) || (p.delivered > 0 && p.avg_latency > 4.0 *. base) then Some p.rate
      else None)
    points

let to_series points = List.map (fun p -> (p.offered, p.avg_latency)) points
