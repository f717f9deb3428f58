module D = Noc_graph.Digraph

type t = Link of int * int | Switch of int

let link u v = if u <= v then Link (u, v) else Link (v, u)

let switch s = Switch s

let pp ppf = function
  | Link (u, v) -> Format.fprintf ppf "link %d-%d" u v
  | Switch s -> Format.fprintf ppf "switch %d" s

let undirected_links arch =
  D.fold_edges
    (fun u v acc -> if u < v then (u, v) :: acc else acc)
    arch.Noc_core.Synthesis.topology []
  |> List.sort compare

let single_link_campaign arch = List.map (fun (u, v) -> [ link u v ]) (undirected_links arch)

let multi_link_campaign ~rng ~links ~samples arch =
  let all = undirected_links arch in
  let k = min links (List.length all) in
  if k = 0 || samples <= 0 then []
  else
    List.init samples (fun _ ->
        Noc_util.Prng.sample rng k all |> List.sort compare |> List.map (fun (u, v) -> link u v))
