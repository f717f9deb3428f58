module D = Noc_graph.Digraph
module Tech = Noc_energy.Technology
module Fp = Noc_energy.Floorplan
module Em = Noc_energy.Energy_model

type t = Edge_count | Energy of { tech : Tech.t; fp : Fp.t }

let edge_remainder_cost cost acg u v =
  match cost with
  | Edge_count -> 1.0
  | Energy { tech; fp } ->
      Em.edge_energy ~tech ~fp ~volume_bits:(Acg.volume acg u v) [ u; v ]

let edge_lower_bound cost acg ~min_link_ratio u v =
  match cost with
  | Edge_count -> min_link_ratio
  | Energy { tech; fp } ->
      let direct = Fp.distance_mm fp u v in
      let wire = tech.Tech.el_bit_per_mm *. direct in
      let bit = (2.0 *. tech.Tech.es_bit) +. wire in
      float_of_int (Acg.volume acg u v) *. bit

let remainder_cost cost acg remaining =
  match cost with
  | Edge_count -> float_of_int (D.num_edges remaining)
  | Energy _ ->
      D.fold_edges (fun u v acc -> acc +. edge_remainder_cost cost acg u v) remaining 0.0

let remainder_cost_view cost acg remaining =
  match cost with
  | Edge_count -> float_of_int (Noc_graph.Compact.num_edges remaining)
  | Energy _ ->
      Noc_graph.Compact.fold_edges
        (fun u v acc -> acc +. edge_remainder_cost cost acg u v)
        remaining 0.0

let lower_bound_view cost acg ~min_link_ratio remaining =
  match cost with
  | Edge_count -> min_link_ratio *. float_of_int (Noc_graph.Compact.num_edges remaining)
  | Energy _ ->
      Noc_graph.Compact.fold_edges
        (fun u v acc -> acc +. edge_lower_bound cost acg ~min_link_ratio u v)
        remaining 0.0

let route_cost cost acg ~src ~dst path =
  match cost with
  | Edge_count -> 0.0
  | Energy { tech; fp } ->
      Em.edge_energy ~tech ~fp ~volume_bits:(Acg.volume acg src dst) path

let min_link_ratio_of_library lib =
  List.fold_left
    (fun acc e ->
      let p = e.Noc_primitives.Library.prim in
      let links = float_of_int (Noc_primitives.Primitive.impl_link_count p) in
      let covered = float_of_int (Noc_primitives.Primitive.repr_edge_count p) in
      if covered > 0. then min acc (links /. covered) else acc)
    1.0 lib
