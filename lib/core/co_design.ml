module D = Noc_graph.Digraph
module Edge_map = D.Edge_map
module Fp = Noc_energy.Floorplan

type iteration = {
  round : int;
  energy_pj : float;
  wirelength : float;
}

type result = {
  fp : Fp.t;
  decomposition : Decomposition.t;
  arch : Synthesis.t;
  energy_pj : float;
  history : iteration list;
}

let link_volume_weights acg (arch : Synthesis.t) =
  Edge_map.fold
    (fun (u, v) path acc ->
      let vol = float_of_int (Acg.volume acg u v) in
      let rec walk acc = function
        | a :: (b :: _ as rest) ->
            let cur = Option.value ~default:0.0 (Edge_map.find_opt (a, b) acc) in
            walk (Edge_map.add (a, b) (cur +. vol) acc) rest
        | [ _ ] | [] -> acc
      in
      walk acc path)
    arch.Synthesis.routes Edge_map.empty

let evaluate ~tech ~library ~fp acg =
  let options =
    { (Branch_bound.energy_options ~tech ~fp) with constraints = None }
  in
  let budget = Branch_bound.Budget.(default |> with_max_nodes 20_000) in
  let decomposition, _ = Branch_bound.decompose ~options ~budget ~library acg in
  let arch = Synthesis.custom acg decomposition in
  let energy = Synthesis.total_energy ~tech ~fp acg arch in
  (decomposition, arch, energy)

let optimize ?(rounds = 4) ?(anneal_iterations = 2000) ~rng ~tech ~library ~fp acg =
  let rec go round fp best history =
    let decomposition, arch, energy = evaluate ~tech ~library ~fp acg in
    let weights = link_volume_weights acg arch in
    let wl = Fp.wirelength fp ~weights in
    let history = { round; energy_pj = energy; wirelength = wl } :: history in
    let best =
      match best with
      | Some (_, _, _, e, _) when e <= energy -> best
      | _ -> Some (fp, decomposition, arch, energy, round)
    in
    if round >= rounds then (best, history)
    else begin
      let fp' = Fp.anneal ~rng ~iterations:anneal_iterations ~weights fp in
      (* converged: the placement did not move enough to change the
         objective *)
      if Fp.wirelength fp' ~weights >= wl -. 1e-9 then (best, history)
      else go (round + 1) fp' best history
    end
  in
  let best, history = go 1 fp None [] in
  match best with
  | Some (fp, decomposition, arch, energy_pj, _) ->
      { fp; decomposition; arch; energy_pj; history = List.rev history }
  | None -> assert false
