module Edge_map = Noc_graph.Digraph.Edge_map
module Vmap = Noc_graph.Digraph.Vmap

type summary = {
  packets : int;
  flits : int;
  avg_latency : float;
  min_latency : int;
  max_latency : int;
  avg_hops : float;
  makespan : int;
  throughput : float;
}

let empty_summary =
  {
    packets = 0;
    flits = 0;
    avg_latency = 0.;
    min_latency = 0;
    max_latency = 0;
    avg_hops = 0.;
    makespan = 0;
    throughput = 0.;
  }

let summarize deliveries =
  match deliveries with
  | [] -> empty_summary
  | ds ->
      let n = List.length ds in
      let flits, lat_sum, lat_min, lat_max, hop_sum, first_inject, last_deliver =
        List.fold_left
          (fun (fl, ls, lmin, lmax, hs, fi, ld) { Packet.packet; delivered_at } ->
            let lat = delivered_at - packet.Packet.injected_at in
            ( fl + packet.Packet.size_flits,
              ls + lat,
              min lmin lat,
              max lmax lat,
              hs + Packet.hops packet,
              min fi packet.Packet.injected_at,
              max ld delivered_at ))
          (0, 0, max_int, min_int, 0, max_int, min_int)
          ds
      in
      let makespan = max 1 (last_deliver - first_inject) in
      {
        packets = n;
        flits;
        avg_latency = float_of_int lat_sum /. float_of_int n;
        min_latency = lat_min;
        max_latency = lat_max;
        avg_hops = float_of_int hop_sum /. float_of_int n;
        makespan;
        throughput = float_of_int flits /. float_of_int makespan;
      }

let dynamic_energy_pj ~tech ~fp net =
  let bits = float_of_int (Flitsim.config net).Flitsim.flit_bits in
  let switch =
    Vmap.fold
      (fun _ flits acc ->
        acc +. (float_of_int flits *. bits *. tech.Noc_energy.Technology.es_bit))
      (Flitsim.switch_flits net) 0.0
  in
  let link =
    Edge_map.fold
      (fun (u, v) flits acc ->
        let len = Noc_energy.Floorplan.distance_mm fp u v in
        acc
        +. float_of_int flits *. bits
           *. Noc_energy.Technology.link_energy_per_bit tech ~length_mm:len)
      (Flitsim.link_flits net) 0.0
  in
  switch +. link

let buffer_energy_pj ~tech net =
  float_of_int (Flitsim.buffer_flit_cycles net)
  *. tech.Noc_energy.Technology.e_buffer_pj_per_flit_cycle

let total_ports_squared net =
  let arch = Flitsim.arch net in
  let topo = arch.Noc_core.Synthesis.topology in
  Noc_graph.Digraph.fold_vertices
    (fun v acc ->
      let p = Noc_core.Synthesis.router_ports arch v in
      acc + (p * p))
    topo 0

let clock_energy_pj ~tech net =
  float_of_int (Flitsim.now net)
  *. float_of_int (total_ports_squared net)
  *. tech.Noc_energy.Technology.router_clock_pj_per_port2_cycle

let total_energy_pj ~tech ~fp net =
  dynamic_energy_pj ~tech ~fp net +. buffer_energy_pj ~tech net
  +. clock_energy_pj ~tech net

let avg_power_mw ~tech ~fp net =
  let cycles = Flitsim.now net in
  if cycles <= 0 then 0.0
  else begin
    let e_pj = total_energy_pj ~tech ~fp net in
    let f_hz = tech.Noc_energy.Technology.frequency_mhz *. 1e6 in
    let time_s = float_of_int cycles /. f_hz in
    (* pJ -> mW: 1e-12 J / s * 1e3 *)
    e_pj *. 1e-9 /. time_s
  end

let energy_metrics ~tech ~fp net =
  [
    ("dynamic_energy_pj", dynamic_energy_pj ~tech ~fp net);
    ("buffer_energy_pj", buffer_energy_pj ~tech net);
    ("clock_energy_pj", clock_energy_pj ~tech net);
    ("total_energy_pj", total_energy_pj ~tech ~fp net);
    ("avg_power_mw", avg_power_mw ~tech ~fp net);
  ]

let summary_metrics s =
  [
    ("packets", float_of_int s.packets);
    ("flits", float_of_int s.flits);
    ("avg_latency", s.avg_latency);
    ("min_latency", float_of_int s.min_latency);
    ("max_latency", float_of_int s.max_latency);
    ("avg_hops", s.avg_hops);
    ("makespan", float_of_int s.makespan);
    ("throughput", s.throughput);
  ]
