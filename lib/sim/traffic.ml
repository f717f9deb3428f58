module D = Noc_graph.Digraph

type flow = { src : int; dst : int; size_flits : int; rate : float }

let flows_of_acg ?(size_flits = 1) ~rate_scale acg =
  let g = Noc_core.Acg.graph acg in
  let max_b =
    D.fold_edges (fun u v acc -> max acc (Noc_core.Acg.bandwidth acg u v)) g 0.0
  in
  D.fold_edges
    (fun u v acc ->
      let b = Noc_core.Acg.bandwidth acg u v in
      let rate = if max_b > 0. then rate_scale *. b /. max_b else rate_scale in
      { src = u; dst = v; size_flits; rate } :: acc)
    g []
  |> List.rev

let run ~rng ~net ~flows ~cycles () =
  for _ = 1 to cycles do
    List.iter
      (fun f ->
        if Noc_util.Prng.bernoulli rng f.rate then
          ignore (Engine.inject ~size_flits:f.size_flits net ~src:f.src ~dst:f.dst))
      flows;
    Engine.step net
  done;
  Engine.run_until_idle ~max_cycles:100_000 net

let offered_load flows = List.fold_left (fun acc f -> acc +. f.rate) 0.0 flows
