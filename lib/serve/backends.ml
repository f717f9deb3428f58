module D = Noc_graph.Digraph
module Acg = Noc_core.Acg
module Syn = Noc_core.Synthesis
module Technology = Noc_energy.Technology

(* Scoring walks routes over grid coordinates and builds nothing: no mesh
   or sparse-Hamming topology, no route lists, no floorplan.  Every float
   comes from the operations [Synthesis.avg_hops] and [total_energy] apply
   over [Floorplan.grid] to a built architecture, in the same order:
   - flows in ascending (src, dst), the order of [D.iter_edges] and of
     [Edge_map.iter] over routes;
   - [w +. vol] and [h +. vol *. hops], then [h /. w];
   - each hop's length [|xa - xb| + |ya - yb|] between the cell centres
     [Floorplan.grid] places, the hop energies left-folded from [0.0] in
     path order, then Eq. 1 as [Energy_model.path_bit_energy] forms it,
     times the volume.
   So the scores are bit-identical to building each architecture and
   scoring it. *)

let tech = Technology.cmos_180nm

(* [Floorplan.grid ~cols (uniform_cores ~size_mm:2.0)]: a 2 mm pitch and
   core [i + 1] centred in column [i mod cols], row [i / cols] *)
let pitch = 2.0
let centre k = (float_of_int k *. pitch) +. (pitch /. 2.)

(* the hop between cells [(ra, ca)] and [(rb, cb)]: its length, then the
   link energy folded onto [e] *)
let hop e ra ca rb cb =
  let len = abs_float (centre ca -. centre cb) +. abs_float (centre ra -. centre rb) in
  e +. Technology.link_energy_per_bit tech ~length_mm:len

type tally = {
  mutable w : float;  (** Σ volume *)
  mutable h : float;  (** Σ volume · hops *)
  mutable max_hops : int;
  mutable energy : float;  (** Σ volume · Eq. 1 *)
}

let tally () = { w = 0.; h = 0.; max_hops = 0; energy = 0.0 }

(* one flow of [volume] bits over [hops] hops whose link energies sum to
   [link_e] *)
let add t ~volume ~hops ~link_e =
  let vol = float_of_int volume in
  t.w <- t.w +. vol;
  t.h <- t.h +. (vol *. float_of_int hops);
  t.max_hops <- max t.max_hops hops;
  t.energy <- t.energy +. (vol *. ((float_of_int (hops + 1) *. tech.es_bit) +. link_e))

let score name ~links t =
  {
    Proto.Response.backend = name;
    links;
    avg_hops = (if t.w = 0. then 0. else t.h /. t.w);
    max_hops = t.max_hops;
    energy_pj = t.energy;
  }

(* A flow from cell [(r0, c0)] to [(r1, c1)] that runs along its row to
   column [c1], then along that column to row [r1], moving [step d] cells
   when [d] remain: one on the mesh (XY routing), the largest power of two
   on the sparse-Hamming graph. *)
let walk_grid t ~step ~volume (r0, c0) (r1, c1) =
  let rec along_row c hops e =
    if c = c1 then along_col r0 hops e
    else
      let s = step (abs (c1 - c)) in
      let c' = if c < c1 then c + s else c - s in
      along_row c' (hops + 1) (hop e r0 c r0 c')
  and along_col r hops e =
    if r = r1 then add t ~volume ~hops ~link_e:e
    else
      let s = step (abs (r1 - r)) in
      let r' = if r < r1 then r + s else r - s in
      along_col r' (hops + 1) (hop e r c1 r' c1)
  in
  along_row c0 0 0.0

let largest_power_of_two d =
  let rec go k = if k * 2 <= d then go (k * 2) else k in
  go 1

(* links of one line of [len] cells, each joined to the cells at every
   power-of-two offset ahead of it *)
let hamming_line_links len =
  let n = ref 0 in
  for i = 0 to len - 1 do
    let k = ref 1 in
    while i + !k < len do
      incr n;
      k := !k * 2
    done
  done;
  !n

let compare_all acg ~custom =
  let g = Acg.graph acg in
  (* the grid is sized by the largest core id, so only an id below 1 can
     fall outside it; mesh and sparse-Hamming routes may ride through the
     padding cells beyond that id *)
  let rows, cols = Syn.mesh_dims acg in
  let cell v =
    if v < 1 || v > rows * cols then
      invalid_arg
        (Printf.sprintf "Backends.compare_all: core %d outside %dx%d grid" v rows cols);
    ((v - 1) / cols, (v - 1) mod cols)
  in
  (* an isolated core must fit too *)
  (match D.Vset.min_elt_opt (D.vertices g) with Some v -> ignore (cell v) | None -> ());
  let t_custom = tally () and t_mesh = tally () and t_hamming = tally () in
  D.Edge_map.iter
    (fun (u, v) path ->
      let rec walk (r, c) hops e = function
        | x :: rest ->
            let ((r', c') as next) = cell x in
            walk next (hops + 1) (hop e r c r' c') rest
        | [] -> add t_custom ~volume:(Acg.volume acg u v) ~hops ~link_e:e
      in
      match path with
      | first :: (_ :: _ as rest) -> walk (cell first) 0 0.0 rest
      | [] | [ _ ] -> invalid_arg "Backends.compare_all: route shorter than one hop")
    custom.Syn.routes;
  D.iter_edges
    (fun u v ->
      let volume = Acg.volume acg u v and src = cell u and dst = cell v in
      walk_grid t_mesh ~step:(fun _ -> 1) ~volume src dst;
      walk_grid t_hamming ~step:largest_power_of_two ~volume src dst)
    g;
  [
    score "custom" ~links:(Syn.link_count custom) t_custom;
    score "mesh" ~links:((rows * (cols - 1)) + (cols * (rows - 1))) t_mesh;
    score "sparse_hamming"
      ~links:((rows * hamming_line_links cols) + (cols * hamming_line_links rows))
      t_hamming;
  ]
