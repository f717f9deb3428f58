module D = Noc_graph.Digraph
module Acg = Noc_core.Acg
module Syn = Noc_core.Synthesis
module Edge_map = D.Edge_map

(* the grid (and the shared floorplan below) must cover every core id the
   ACG mentions, so it is sized by the maximum id, not the core count *)
let mesh acg =
  let rows, cols = Syn.mesh_dims acg in
  Syn.mesh ~rows ~cols acg

(* Sparse-Hamming-style topology: node (r, c) is core [r * cols + c + 1]
   (row-major, 1-based, the same convention as [Syn.mesh]), linked to the
   nodes at power-of-two column offsets in its row and power-of-two row
   offsets in its column.  The grid is fully populated ([rows * cols]
   cores), so every greedy route below only crosses existing links. *)
let sparse_hamming acg =
  let rows, cols = Syn.mesh_dims acg in
  let node r c = (r * cols) + c + 1 in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let k = ref 1 in
      while c + !k < cols do
        edges := (node r c, node r (c + !k)) :: !edges;
        k := !k * 2
      done;
      let k = ref 1 in
      while r + !k < rows do
        edges := (node r c, node (r + !k) c) :: !edges;
        k := !k * 2
      done
    done
  done;
  let topology = D.of_edges !edges in
  (* largest power-of-two step toward the target coordinate *)
  let rec steps_toward cur target acc =
    if cur = target then List.rev acc
    else
      let delta = target - cur in
      let mag = abs delta in
      let step = ref 1 in
      while !step * 2 <= mag do
        step := !step * 2
      done;
      let next = if delta > 0 then cur + !step else cur - !step in
      steps_toward next target (next :: acc)
  in
  let route src dst =
    let rs = (src - 1) / cols and cs = (src - 1) mod cols in
    let rd = (dst - 1) / cols and cd = (dst - 1) mod cols in
    let row_fixed = List.map (fun c -> node rs c) (steps_toward cs cd []) in
    let col_fixed = List.map (fun r -> node r cd) (steps_toward rs rd []) in
    (src :: row_fixed) @ col_fixed
  in
  let routes =
    D.fold_edges
      (fun u v acc -> Edge_map.add (u, v) (route u v) acc)
      (Acg.graph acg) Edge_map.empty
  in
  Syn.make ~topology ~routes ()

let score ~tech ~fp ~name acg arch =
  {
    Proto.Response.backend = name;
    links = Syn.link_count arch;
    avg_hops = Syn.avg_hops acg arch;
    max_hops = Syn.max_hops arch;
    energy_pj = Syn.total_energy ~tech ~fp acg arch;
  }

let compare_all acg ~custom =
  let tech = Noc_energy.Technology.cmos_180nm in
  (* mesh/Hamming routes may ride through padding cores beyond the ACG's
     maximum id, so the shared floorplan places the whole grid *)
  let rows, cols = Syn.mesh_dims acg in
  let fp =
    Noc_energy.Floorplan.grid ~cols
      (Noc_energy.Floorplan.uniform_cores ~n:(rows * cols) ~size_mm:2.0)
  in
  [
    score ~tech ~fp ~name:"custom" acg custom;
    score ~tech ~fp ~name:"mesh" acg (mesh acg);
    score ~tech ~fp ~name:"sparse_hamming" acg (sparse_hamming acg);
  ]
