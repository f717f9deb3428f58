type vector = { energy_pj : float; latency : float; area_mm2 : float }

let dominates a b =
  a.energy_pj <= b.energy_pj && a.latency <= b.latency && a.area_mm2 <= b.area_mm2
  && (a.energy_pj < b.energy_pj || a.latency < b.latency || a.area_mm2 < b.area_mm2)

let compare_vector a b =
  match compare a.energy_pj b.energy_pj with
  | 0 -> (
      match compare a.latency b.latency with
      | 0 -> compare a.area_mm2 b.area_mm2
      | c -> c)
  | c -> c

type entry = { vec : vector; id : int }

type t = entry list
(* unordered internally; [entries] canonicalizes *)

let empty = []
let size = List.length

let add e t =
  if List.exists (fun f -> dominates f.vec e.vec) t then t
  else e :: List.filter (fun f -> not (dominates e.vec f.vec)) t

let of_entries es = List.fold_left (fun t e -> add e t) empty es

let compare_entry a b =
  match compare_vector a.vec b.vec with 0 -> compare a.id b.id | c -> c

let entries t = List.sort compare_entry t

let filter_reference es =
  List.filter
    (fun e -> not (List.exists (fun f -> dominates f.vec e.vec) es))
    (List.sort compare_entry es)

let reference_point = function
  | [] -> invalid_arg "Pareto.reference_point: empty"
  | v :: vs ->
      let max3 a b =
        {
          energy_pj = Float.max a.energy_pj b.energy_pj;
          latency = Float.max a.latency b.latency;
          area_mm2 = Float.max a.area_mm2 b.area_mm2;
        }
      in
      let m = List.fold_left max3 v vs in
      let push x = x +. (0.1 *. Float.max (Float.abs x) 1.0) in
      { energy_pj = push m.energy_pj; latency = push m.latency; area_mm2 = push m.area_mm2 }

(* 2-D dominated area of the (energy, latency) staircase against the
   reference corner: filter to the 2-D non-dominated subset (x ascending,
   y strictly descending), then sum the vertical slabs.  At x between two
   successive staircase points the covered latency extent is ref.y - y_i. *)
let area2 ~rx ~ry pts =
  let pts = List.filter (fun (x, y) -> x < rx && y < ry) pts in
  let sorted = List.sort compare pts in
  (* keep (x, y) iff no earlier point has y <= our y; equal x keeps the
     smallest y only (sort puts it first) *)
  let stairs, _ =
    List.fold_left
      (fun (acc, best_y) (x, y) ->
        if y < best_y then ((x, y) :: acc, y) else (acc, best_y))
      ([], infinity) sorted
  in
  let stairs = List.rev stairs in
  let rec sum = function
    | [] -> 0.0
    | (x, y) :: rest ->
        let next_x = match rest with (x', _) :: _ -> x' | [] -> rx in
        ((next_x -. x) *. (ry -. y)) +. sum rest
  in
  sum stairs

let hypervolume ~ref_point vs =
  let inside =
    List.filter
      (fun v ->
        v.energy_pj < ref_point.energy_pj
        && v.latency < ref_point.latency
        && v.area_mm2 < ref_point.area_mm2)
      vs
  in
  (* sweep along the area axis: between two successive distinct area
     levels the active set is fixed, contributing slab-height x 2-D area *)
  let zs = List.sort_uniq compare (List.map (fun v -> v.area_mm2) inside) in
  let rec slabs = function
    | [] -> 0.0
    | z :: rest ->
        let z_next = match rest with z' :: _ -> z' | [] -> ref_point.area_mm2 in
        let active =
          List.filter_map
            (fun v -> if v.area_mm2 <= z then Some (v.energy_pj, v.latency) else None)
            inside
        in
        ((z_next -. z) *. area2 ~rx:ref_point.energy_pj ~ry:ref_point.latency active)
        +. slabs rest
  in
  slabs zs
