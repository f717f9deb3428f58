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
}

(* Walking the table from its last flow conses each list in map order. *)
let apply arch ~faults =
  let g = surviving_topology arch ~faults in
  let kept, rerouted, disconnected, patch =
    Seq.fold_left
      (fun (kept, rer, disc, patch) ((s, d), path) ->
        let alive = D.mem_vertex g s && D.mem_vertex g d in
        if alive && path_survives g path then ((s, d) :: kept, rer, disc, patch)
        else
          match if alive then Noc_graph.Traversal.shortest_path g s d else None with
          | Some path' -> (kept, (s, d) :: rer, disc, ((s, d), Some path') :: patch)
          | None -> (kept, rer, (s, d) :: disc, ((s, d), None) :: patch))
      ([], [], [], [])
      (Edge_map.to_rev_seq arch.Syn.routes)
  in
  { arch = Syn.degrade arch ~topology:g ~patch; kept; rerouted; disconnected }
