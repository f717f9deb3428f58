module D = Noc_graph.Digraph
module Edge_map = D.Edge_map
module Syn = Noc_core.Synthesis

let surviving_topology arch ~faults =
  List.fold_left
    (fun g -> function
      | Fault.Link (u, v) -> D.remove_edge (D.remove_edge g u v) v u
      | Fault.Switch s -> D.remove_vertex g s)
    arch.Syn.topology faults

let path_survives g path =
  let rec ok = function
    | a :: (b :: _ as rest) -> D.mem_edge g a b && ok rest
    | [ _ ] | [] -> true
  in
  ok path

type outcome = {
  arch : Syn.t;
  kept : (int * int) list;
  rerouted : (int * int) list;
  disconnected : (int * int) list;
  deadlock : Noc_core.Deadlock.report;
}

let apply arch ~faults =
  let g = surviving_topology arch ~faults in
  let routes, kept, rerouted, disconnected =
    Edge_map.fold
      (fun (s, d) path (routes, kept, rer, disc) ->
        if not (D.mem_vertex g s && D.mem_vertex g d) then
          (routes, kept, rer, (s, d) :: disc)
        else if path_survives g path then
          (Edge_map.add (s, d) path routes, (s, d) :: kept, rer, disc)
        else
          match Noc_graph.Traversal.shortest_path g s d with
          | Some path' -> (Edge_map.add (s, d) path' routes, kept, (s, d) :: rer, disc)
          | None -> (routes, kept, rer, (s, d) :: disc))
      arch.Syn.routes
      (Edge_map.empty, [], [], [])
  in
  let arch' = Syn.make ~topology:g ~routes in
  {
    arch = arch';
    kept = List.sort compare kept;
    rerouted = List.sort compare rerouted;
    disconnected = List.sort compare disconnected;
    deadlock = Noc_core.Deadlock.analyze arch';
  }
