module Vset = Set.Make (Int)
module Vmap = Map.Make (Int)

module Edge = struct
  type t = int * int

  let compare (a1, b1) (a2, b2) =
    match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

  let pp ppf (u, v) = Format.fprintf ppf "%d->%d" u v
end

module Edge_set = Set.Make (Edge)
module Edge_map = Map.Make (Edge)

type t = {
  verts : Vset.t;
  succ : Vset.t Vmap.t;
  pred : Vset.t Vmap.t;
  n_edges : int;
}

let empty = { verts = Vset.empty; succ = Vmap.empty; pred = Vmap.empty; n_edges = 0 }

let is_empty g = Vset.is_empty g.verts

let has_no_edges g = g.n_edges = 0

let mem_vertex g v = Vset.mem v g.verts

let succ g v = match Vmap.find_opt v g.succ with Some s -> s | None -> Vset.empty

let pred g v = match Vmap.find_opt v g.pred with Some s -> s | None -> Vset.empty

let mem_edge g u v = Vset.mem v (succ g u)

let add_vertex g v = if mem_vertex g v then g else { g with verts = Vset.add v g.verts }

let add_edge g u v =
  if u = v then invalid_arg "Digraph.add_edge: self-loop";
  if mem_edge g u v then add_vertex (add_vertex g u) v
  else
    {
      verts = Vset.add u (Vset.add v g.verts);
      succ = Vmap.add u (Vset.add v (succ g u)) g.succ;
      pred = Vmap.add v (Vset.add u (pred g v)) g.pred;
      n_edges = g.n_edges + 1;
    }

let add_edge_pair g u v = add_edge (add_edge g u v) v u

let remove_edge g u v =
  if not (mem_edge g u v) then g
  else
    {
      g with
      succ = Vmap.add u (Vset.remove v (succ g u)) g.succ;
      pred = Vmap.add v (Vset.remove u (pred g v)) g.pred;
      n_edges = g.n_edges - 1;
    }

let remove_vertex g v =
  if not (mem_vertex g v) then g
  else
    let g = Vset.fold (fun w acc -> remove_edge acc v w) (succ g v) g in
    let g = Vset.fold (fun w acc -> remove_edge acc w v) (pred g v) g in
    {
      g with
      verts = Vset.remove v g.verts;
      succ = Vmap.remove v g.succ;
      pred = Vmap.remove v g.pred;
    }

let out_degree g v = Vset.cardinal (succ g v)
let in_degree g v = Vset.cardinal (pred g v)
let degree g v = out_degree g v + in_degree g v

let vertices g = g.verts
let vertex_list g = Vset.elements g.verts
let num_vertices g = Vset.cardinal g.verts
let num_edges g = g.n_edges

let fold_edges f g acc =
  Vmap.fold (fun u vs acc -> Vset.fold (fun v acc -> f u v acc) vs acc) g.succ acc

let iter_edges f g = fold_edges (fun u v () -> f u v) g ()

let fold_vertices f g acc = Vset.fold f g.verts acc

let edges g = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) g [])

let edge_set g = fold_edges (fun u v acc -> Edge_set.add (u, v) acc) g Edge_set.empty

let of_edges ?(vertices = []) es =
  let g = List.fold_left add_vertex empty vertices in
  List.fold_left (fun g (u, v) -> add_edge g u v) g es

let union a b =
  let g = Vset.fold (fun v acc -> add_vertex acc v) b.verts a in
  fold_edges (fun u v acc -> add_edge acc u v) b g

let diff_edges g es = List.fold_left (fun g (u, v) -> remove_edge g u v) g es

let induced g vs =
  let keep = Vset.inter vs g.verts in
  let base = Vset.fold (fun v acc -> add_vertex acc v) keep empty in
  fold_edges
    (fun u v acc -> if Vset.mem u keep && Vset.mem v keep then add_edge acc u v else acc)
    g base

let map_vertices f g =
  let base =
    Vset.fold
      (fun v acc ->
        let v' = f v in
        if mem_vertex acc v' then invalid_arg "Digraph.map_vertices: not injective"
        else add_vertex acc v')
      g.verts empty
  in
  fold_edges (fun u v acc -> add_edge acc (f u) (f v)) g base

let reverse g =
  let base = Vset.fold (fun v acc -> add_vertex acc v) g.verts empty in
  fold_edges (fun u v acc -> add_edge acc v u) g base

let undirected_closure g = fold_edges (fun u v acc -> add_edge acc v u) g g

(* each unordered pair once: at its ascending edge if present, otherwise
   at its one descending edge *)
let undirected_edge_count g =
  fold_edges (fun u v n -> if u < v || not (mem_edge g v u) then n + 1 else n) g 0

let undirected_edges g =
  fold_edges
    (fun u v acc -> if u < v || not (mem_edge g v u) then (min u v, max u v) :: acc else acc)
    g []
  |> List.sort compare

let equal a b = Vset.equal a.verts b.verts && Edge_set.equal (edge_set a) (edge_set b)

let pp ppf g =
  Format.fprintf ppf "@[<hov 2>{vertices=[%a];@ edges=[%a]}@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") Format.pp_print_int)
    (vertex_list g)
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") Edge.pp)
    (edges g)
