module D = Noc_graph.Digraph
module Vmap = D.Vmap
module P = Noc_primitives.Primitive
module L = Noc_primitives.Library

type t = {
  entry : L.entry;
  mapping : int Vmap.t;
  covered : D.Edge.t list;
}

let of_vf2 entry m =
  let covered = Noc_graph.Vf2.edge_image ~pattern:entry.L.prim.P.repr m in
  { entry; mapping = m; covered }

let primitive t = t.entry.L.prim

let impl_in_acg t =
  let f v =
    match Vmap.find_opt v t.mapping with
    | Some w -> w
    | None -> invalid_arg "Matching.impl_in_acg: implementation vertex not mapped"
  in
  D.map_vertices f (primitive t).P.impl

let inverse t =
  Vmap.fold (fun p a acc -> Vmap.add a p acc) t.mapping Vmap.empty

let acg_route t ~src ~dst =
  let inv = inverse t in
  match (Vmap.find_opt src inv, Vmap.find_opt dst inv) with
  | Some ps, Some pd -> (
      match P.route (primitive t) ~src:ps ~dst:pd with
      | Some path -> Some (List.map (fun v -> Vmap.find v t.mapping) path)
      | None -> None)
  | _ -> None

let routes t =
  List.filter_map
    (fun (u, v) ->
      match acg_route t ~src:u ~dst:v with
      | Some path -> Some ((u, v), path)
      | None -> None)
    t.covered

let cost c acg t =
  match c with
  | Cost.Edge_count -> float_of_int (P.impl_link_count (primitive t))
  | Cost.Energy _ ->
      List.fold_left
        (fun acc ((u, v), path) -> acc +. Cost.route_cost c acg ~src:u ~dst:v path)
        0.0 (routes t)

let pp ppf t =
  let pairs =
    Vmap.bindings t.mapping
    |> List.map (fun (p, a) -> Printf.sprintf "(%d %d)" p a)
    |> String.concat ", "
  in
  Format.fprintf ppf "%d: %s,\tMapping: %s" t.entry.L.id (primitive t).P.name pairs
