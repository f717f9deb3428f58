module D = Noc_graph.Digraph
module Edge_map = D.Edge_map

type t = {
  graph : D.t;
  volume : int Edge_map.t;
  bandwidth : float Edge_map.t;
}

let check_keys graph m what =
  Edge_map.iter
    (fun (u, v) _ ->
      if not (D.mem_edge graph u v) then
        invalid_arg
          (Printf.sprintf "Acg.make: %s attribute on non-edge %d->%d" what u v))
    m

let make ~graph ?(volume = Edge_map.empty) ?(bandwidth = Edge_map.empty) () =
  check_keys graph volume "volume";
  check_keys graph bandwidth "bandwidth";
  { graph; volume; bandwidth }

let of_weighted_edges quads =
  let graph = D.of_edges (List.map (fun (u, v, _, _) -> (u, v)) quads) in
  let volume =
    List.fold_left (fun m (u, v, vol, _) -> Edge_map.add (u, v) vol m) Edge_map.empty quads
  in
  let bandwidth =
    List.fold_left (fun m (u, v, _, bw) -> Edge_map.add (u, v) bw m) Edge_map.empty quads
  in
  make ~graph ~volume ~bandwidth ()

let of_tgff (tg : Noc_tgff.Tgff.t) =
  make ~graph:tg.Noc_tgff.Tgff.graph ~volume:tg.Noc_tgff.Tgff.volume
    ~bandwidth:tg.Noc_tgff.Tgff.bandwidth ()

let uniform ~volume ~bandwidth g =
  let vol, bw =
    D.fold_edges
      (fun u v (vm, bm) ->
        (Edge_map.add (u, v) volume vm, Edge_map.add (u, v) bandwidth bm))
      g
      (Edge_map.empty, Edge_map.empty)
  in
  make ~graph:g ~volume:vol ~bandwidth:bw ()

let graph t = t.graph

let volume t u v =
  if not (D.mem_edge t.graph u v) then 0
  else match Edge_map.find_opt (u, v) t.volume with Some x -> x | None -> 1

let bandwidth t u v =
  if not (D.mem_edge t.graph u v) then 0.
  else match Edge_map.find_opt (u, v) t.bandwidth with Some x -> x | None -> 0.

let num_cores t = D.num_vertices t.graph
let num_flows t = D.num_edges t.graph

let grid_floorplan t =
  let max_id = D.fold_vertices max t.graph 1 in
  Noc_energy.Floorplan.(grid (uniform_cores ~n:max_id ~size_mm:2.0))

let total_volume t = D.fold_edges (fun u v acc -> acc + volume t u v) t.graph 0

let restrict t g =
  D.iter_edges
    (fun u v ->
      if not (D.mem_edge t.graph u v) then
        invalid_arg (Printf.sprintf "Acg.restrict: %d->%d not in the ACG" u v))
    g;
  {
    graph = g;
    volume = Edge_map.filter (fun (u, v) _ -> D.mem_edge g u v) t.volume;
    bandwidth = Edge_map.filter (fun (u, v) _ -> D.mem_edge g u v) t.bandwidth;
  }

let map_vertices f t =
  let remap m =
    Edge_map.fold (fun (u, v) x acc -> Edge_map.add (f u, f v) x acc) m Edge_map.empty
  in
  { graph = D.map_vertices f t.graph; volume = remap t.volume; bandwidth = remap t.bandwidth }

(* ------------------------------------------------------------------ *)
(* Canonicalization: an isomorphism-invariant fingerprint (and relabeling)
   built on the CSR canonical-labeling kernel.  Edge labels fed to the
   kernel are the ranks of the distinct (volume, bandwidth) pairs — an
   invariant of the attributed graph — so the canonical order respects
   attributes, and the serialization below spells the attribute values
   out in canonical edge order. *)

module Compact = Noc_graph.Compact
module Canon = Noc_graph.Canon

let bw_bits f = Int64.bits_of_float f

let canonical_rank t =
  let frozen = Compact.freeze t.graph in
  let attrs =
    D.fold_edges (fun u v acc -> (volume t u v, bw_bits (bandwidth t u v)) :: acc) t.graph []
    |> List.sort_uniq compare
  in
  let index = Hashtbl.create (List.length attrs) in
  List.iteri (fun i a -> Hashtbl.replace index a i) attrs;
  let edge_label ud vd =
    let u = Compact.vertex frozen ud and v = Compact.vertex frozen vd in
    Hashtbl.find index (volume t u v, bw_bits (bandwidth t u v))
  in
  match Canon.canonical_order ~edge_label frozen with
  | `Canonical rank -> (frozen, Some rank)
  | `Truncated -> (frozen, None)

(* rank_of maps an original core id to its 0-based serialization position *)
let serialize t rank_of =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "n=%d;e=%d;" (num_cores t) (num_flows t));
  D.fold_edges
    (fun u v acc -> (rank_of u, rank_of v, volume t u v, bw_bits (bandwidth t u v)) :: acc)
    t.graph []
  |> List.sort compare
  |> List.iter (fun (ru, rv, vol, bw) ->
         Buffer.add_string buf (Printf.sprintf "%d>%d:%d:%Lx;" ru rv vol bw));
  Buffer.contents buf

type labeling = { acg : t; frozen : Compact.t; rank : int array option }

let canonical_labeling t =
  let frozen, rank = canonical_rank t in
  { acg = t; frozen; rank }

let hash_of_labeling { acg = t; frozen; rank } =
  match rank with
  | Some rank ->
      "canon:" ^ Digest.to_hex (Digest.string (serialize t (fun v -> rank.(Compact.index frozen v))))
  | None ->
      (* identity-only fallback: dense index = ascending original id, so
         textually identical ACGs still collide (and only those) *)
      "exact:" ^ Digest.to_hex (Digest.string (serialize t (fun v -> Compact.index frozen v)))

let form_of_labeling { acg = t; frozen; rank } =
  match rank with
  | None -> None
  | Some rank ->
      let f v = rank.(Compact.index frozen v) + 1 in
      let mapping =
        D.fold_vertices (fun v m -> D.Vmap.add v (f v) m) t.graph D.Vmap.empty
      in
      Some (map_vertices f t, mapping)

let canonical_hash t = hash_of_labeling (canonical_labeling t)
let canonical_form t = form_of_labeling (canonical_labeling t)

let pp ppf t =
  Format.fprintf ppf "@[<v>ACG: %d cores, %d flows, total volume %d bits@ " (num_cores t)
    (num_flows t) (total_volume t);
  D.iter_edges
    (fun u v ->
      Format.fprintf ppf "%d -> %d  (v=%d, b=%.3f)@ " u v (volume t u v) (bandwidth t u v))
    t.graph;
  Format.fprintf ppf "@]"
