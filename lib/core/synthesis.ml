module D = Noc_graph.Digraph
module Edge_map = D.Edge_map

type t = {
  topology : D.t;
  routes : int list Edge_map.t;
  uniform_router_ports : int option;
}

(* single pass over the path: checks the endpoints and every hop without the
   List.nth/List.length rescans (those made validation quadratic in the path
   length) *)
let path_follows topology ~src ~dst path =
  match path with
  | [] -> false
  | first :: _ ->
      first = src
      && (let rec ok = function
            | a :: (b :: _ as rest) -> D.mem_edge topology a b && ok rest
            | [ last ] -> last = dst
            | [] -> false
          in
          ok path)

let routes_valid_internal topology routes =
  Edge_map.for_all (fun (src, dst) path -> path_follows topology ~src ~dst path) routes

let make ~topology ~routes =
  let topology = D.undirected_closure topology in
  if not (routes_valid_internal topology routes) then
    invalid_arg "Synthesis.make: a route does not follow the topology";
  { topology; routes; uniform_router_ports = None }

let degrade t ~topology ~patch =
  let routes =
    List.fold_left
      (fun routes ((src, dst), path) ->
        match path with
        | None -> Edge_map.remove (src, dst) routes
        | Some path ->
            if not (path_follows topology ~src ~dst path) then
              invalid_arg "Synthesis.degrade: a route does not follow the topology";
            Edge_map.add (src, dst) path routes)
      t.routes patch
  in
  { topology; routes; uniform_router_ports = None }

let custom acg decomp =
  let base =
    D.fold_vertices (fun v g -> D.add_vertex g v) (Acg.graph acg) D.empty
  in
  let topology =
    List.fold_left
      (fun g m -> D.union g (Matching.impl_in_acg m))
      base decomp.Decomposition.matchings
  in
  let topology =
    D.fold_edges (fun u v g -> D.add_edge_pair g u v) decomp.Decomposition.remainder topology
  in
  let routes =
    List.fold_left
      (fun acc m ->
        List.fold_left
          (fun acc ((u, v), path) -> Edge_map.add (u, v) path acc)
          acc (Matching.routes m))
      Edge_map.empty decomp.Decomposition.matchings
  in
  (* every covered edge must have received a route *)
  List.iter
    (fun m ->
      List.iter
        (fun (u, v) ->
          if not (Edge_map.mem (u, v) routes) then
            invalid_arg
              (Printf.sprintf "Synthesis.custom: no route for %d->%d" u v))
        m.Matching.covered)
    decomp.Decomposition.matchings;
  let routes =
    D.fold_edges
      (fun u v acc -> Edge_map.add (u, v) [ u; v ] acc)
      decomp.Decomposition.remainder routes
  in
  { topology; routes; uniform_router_ports = None }

let mesh_dims acg =
  let n = D.fold_vertices max (Acg.graph acg) 1 in
  let cols = int_of_float (ceil (sqrt (float_of_int n))) in
  ((n + cols - 1) / cols, cols)

let mesh ~rows ~cols acg =
  let n = rows * cols in
  D.fold_vertices
    (fun v () ->
      if v < 1 || v > n then
        invalid_arg (Printf.sprintf "Synthesis.mesh: core %d outside %dx%d grid" v rows cols))
    (Acg.graph acg) ();
  let topology = Noc_graph.Generators.mesh ~rows ~cols in
  let coord v = ((v - 1) / cols, (v - 1) mod cols) in
  let id r c = (r * cols) + c + 1 in
  let xy_path src dst =
    (* dimension-ordered: fix column first (X), then row (Y) *)
    let r0, c0 = coord src and r1, c1 = coord dst in
    let rec go_x r c acc =
      if c = c1 then go_y r c acc
      else
        let c' = if c < c1 then c + 1 else c - 1 in
        go_x r c' (id r c' :: acc)
    and go_y r c acc =
      if r = r1 then List.rev acc
      else
        let r' = if r < r1 then r + 1 else r - 1 in
        go_y r' c (id r' c :: acc)
    in
    go_x r0 c0 [ src ]
  in
  let routes =
    D.fold_edges
      (fun u v acc -> Edge_map.add (u, v) (xy_path u v) acc)
      (Acg.graph acg) Edge_map.empty
  in
  (* mesh prototypes instantiate one identical full-radix router per tile:
     4 directions + local port *)
  { topology; routes; uniform_router_ports = Some 5 }

let link_count t = D.undirected_edge_count t.topology

let route t ~src ~dst = Edge_map.find_opt (src, dst) t.routes

let next_hop t ~node ~src ~dst =
  match route t ~src ~dst with
  | None -> None
  | Some path ->
      let rec find = function
        | a :: b :: _ when a = node -> Some b
        | _ :: rest -> find rest
        | [] -> None
      in
      find path

let hops path = List.length path - 1

let avg_hops acg t =
  let total_w, total_h =
    Edge_map.fold
      (fun (u, v) path (w, h) ->
        let vol = float_of_int (Acg.volume acg u v) in
        (w +. vol, h +. (vol *. float_of_int (hops path))))
      t.routes (0., 0.)
  in
  if total_w = 0. then 0. else total_h /. total_w

let max_hops t = Edge_map.fold (fun _ path acc -> max acc (hops path)) t.routes 0

let link_load acg t =
  Edge_map.fold
    (fun (u, v) path acc ->
      let bw = Acg.bandwidth acg u v in
      let rec walk acc = function
        | a :: (b :: _ as rest) ->
            let cur = Option.value ~default:0.0 (Edge_map.find_opt (a, b) acc) in
            walk (Edge_map.add (a, b) (cur +. bw) acc) rest
        | [ _ ] | [] -> acc
      in
      walk acc path)
    t.routes Edge_map.empty

let total_energy ~tech ~fp acg t =
  Edge_map.fold
    (fun (u, v) path acc ->
      acc
      +. Noc_energy.Energy_model.edge_energy ~tech ~fp
           ~volume_bits:(Acg.volume acg u v) path)
    t.routes 0.0

(* The heuristic's restarts are seeded from the whole (sorted) link list,
   so the count is a pure function of the architecture. *)
let bisection_links t =
  let seed = List.fold_left (fun h (u, v) -> Hashtbl.hash (h, u, v)) 0 (D.edges t.topology) in
  snd (Noc_graph.Traversal.min_bisection_cut ~rng:(Noc_util.Prng.create ~seed) t.topology)

let routes_valid t = routes_valid_internal t.topology t.routes

(* Spare-link hardening: add minimum-cost extra links until no single link
   failure can disconnect a routed flow's endpoints.  The cost of a spare
   is its one-hop Eq. 1 bit energy over the floorplan, so spares between
   physically close cores are preferred.  Only original links ever need
   protecting — removing a spare leaves every original route intact — so
   the greedy loop terminates (the direct src-dst link always reconnects a
   broken pair). *)
let harden ~tech ~fp t =
  let pairs =
    Edge_map.fold (fun (s, d) _ acc -> (s, d) :: acc) t.routes [] |> List.sort compare
  in
  let vertices = List.sort Int.compare (D.vertex_list t.topology) in
  let connected g s d = Noc_graph.Traversal.shortest_path g s d <> None in
  let remove_link g u v = D.remove_edge (D.remove_edge g u v) v u in
  let link_cost (u, v) = Noc_energy.Energy_model.path_bit_energy ~tech ~fp [ u; v ] in
  (* first link whose removal disconnects some routed pair, with the graph
     after removal and the pairs it breaks *)
  let broken topo =
    List.find_map
      (fun (u, v) ->
        let g = remove_link topo u v in
        match List.filter (fun (s, d) -> not (connected g s d)) pairs with
        | [] -> None
        | bs -> Some (g, bs))
      (D.undirected_edges topo)
  in
  let rec fix topo spares =
    match broken topo with
    | None -> (topo, List.rev spares)
    | Some (g, bs) ->
        (* cheapest absent link that reconnects at least one broken pair;
           ties broken lexicographically for determinism *)
        let candidates =
          List.concat_map
            (fun a ->
              List.filter_map
                (fun b ->
                  if a >= b || D.mem_edge topo a b then None
                  else if
                    List.exists (fun (s, d) -> connected (D.add_edge_pair g a b) s d) bs
                  then Some (link_cost (a, b), a, b)
                  else None)
                vertices)
            vertices
        in
        (match List.sort compare candidates with
        | [] ->
            (* unreachable: the direct (s, d) spare always reconnects *)
            invalid_arg "Synthesis.harden: no spare link can restore connectivity"
        | (_, a, b) :: _ -> fix (D.add_edge_pair topo a b) ((a, b) :: spares))
  in
  let topo, spares = fix t.topology [] in
  if spares = [] then (t, [])
  else
    (* radix changed where spares attach: per-node port counts now *)
    ({ topology = topo; routes = t.routes; uniform_router_ports = None }, spares)

let router_ports t v =
  match t.uniform_router_ports with
  | Some p -> p
  | None -> D.Vset.cardinal (D.succ t.topology v) + 1

let pp ppf t =
  Format.fprintf ppf "architecture: %d cores, %d links, %d routes, max %d hops"
    (D.num_vertices t.topology) (link_count t) (Edge_map.cardinal t.routes) (max_hops t)
