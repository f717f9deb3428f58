module D = Noc_graph.Digraph

type t = Link of int * int | Switch of int

let link u v = if u <= v then Link (u, v) else Link (v, u)

let switch s = Switch s

let single_link_campaign arch =
  List.map (fun (u, v) -> [ link u v ]) (D.undirected_edges arch.Noc_core.Synthesis.topology)

let multi_link_campaign ~rng ~links ~samples arch =
  let all = D.undirected_edges arch.Noc_core.Synthesis.topology in
  let k = min links (List.length all) in
  if k = 0 || samples <= 0 then []
  else
    List.init samples (fun _ ->
        Noc_util.Prng.sample rng k all |> List.sort compare |> List.map (fun (u, v) -> link u v))
