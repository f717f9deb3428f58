module C = Compact

(* The edge list of [g] as [(rank src, rank dst, label)] triples in
   lexicographic order: the certificate the search minimizes. *)
let certificate ~edge_label (g : C.t) rank =
  let acc = ref [] in
  for u = 0 to g.C.n - 1 do
    for k = g.C.succ_off.(u) to g.C.succ_off.(u + 1) - 1 do
      let v = g.C.succ_arr.(k) in
      acc := (rank.(u), rank.(v), edge_label u v) :: !acc
    done
  done;
  List.sort compare !acc

exception Out_of_budget

(* One refinement pass: recolor every vertex by (old color, sorted multiset
   of (label, color) over successors, same over predecessors) and normalize
   the new colors to the ranks of the sorted distinct signatures.  The old
   color is the first signature component, so the new partition always
   refines the old one and the distinct-color count is non-decreasing;
   an unchanged count therefore means a fixed partition. *)
let refine_pass ~label (g : C.t) colors =
  let n = g.C.n in
  let signature u =
    let succs = ref [] in
    for k = g.C.succ_off.(u) to g.C.succ_off.(u + 1) - 1 do
      let v = g.C.succ_arr.(k) in
      succs := (label u v, colors.(v)) :: !succs
    done;
    let preds = ref [] in
    for k = g.C.pred_off.(u) to g.C.pred_off.(u + 1) - 1 do
      let w = g.C.pred_arr.(k) in
      preds := (label w u, colors.(w)) :: !preds
    done;
    (colors.(u), List.sort compare !succs, List.sort compare !preds)
  in
  let sigs = Array.init n signature in
  let distinct = List.sort_uniq compare (Array.to_list sigs) in
  let index = Hashtbl.create (List.length distinct) in
  List.iteri (fun i s -> Hashtbl.replace index s i) distinct;
  (Array.map (fun s -> Hashtbl.find index s) sigs, List.length distinct)

let count_colors colors =
  let seen = Hashtbl.create 16 in
  Array.iter (fun c -> Hashtbl.replace seen c ()) colors;
  Hashtbl.length seen

let refine ~label ~budget g colors =
  let rec loop colors ncolors =
    if !budget <= 0 then raise Out_of_budget;
    decr budget;
    let colors', ncolors' = refine_pass ~label g colors in
    if ncolors' = ncolors then colors' else loop colors' ncolors'
  in
  loop colors (count_colors colors)

(* The first smallest non-singleton cell, by (size, color id): color ids
   are signature ranks, hence isomorphism-invariant, so the branching
   target is the same cell in any relabeling of the graph. *)
let target_cell colors =
  let cells = Hashtbl.create 16 in
  Array.iteri
    (fun v c ->
      Hashtbl.replace cells c (v :: (try Hashtbl.find cells c with Not_found -> [])))
    colors;
  Hashtbl.fold
    (fun c vs best ->
      let size = List.length vs in
      if size < 2 then best
      else
        match best with
        | Some (bs, bc, _) when (bs, bc) <= (size, c) -> best
        | _ -> Some (size, c, List.rev vs))
    cells None

let canonical_order ?(edge_label = fun _ _ -> 0) ?(max_refines = 10_000) (g : C.t) =
  let n = g.C.n in
  if n = 0 then `Canonical [||]
  else begin
    let budget = ref max_refines in
    let best = ref None in
    let rec go colors =
      match target_cell colors with
      | None ->
          (* discrete: the normalized colors are a permutation of 0..n-1 *)
          let cert = certificate ~edge_label g colors in
          let keep =
            match !best with None -> true | Some (bc, _) -> cert < bc
          in
          if keep then best := Some (cert, Array.copy colors)
      | Some (_, _, cell) ->
          List.iter
            (fun v ->
              let c = Array.copy colors in
              (* individualize [v]: a fresh color above every normalized id *)
              c.(v) <- n;
              go (refine ~label:edge_label ~budget g c))
            cell
    in
    match go (refine ~label:edge_label ~budget g (Array.make n 0)) with
    | () -> (
        match !best with
        | Some (_, rank) -> `Canonical rank
        | None -> `Truncated (* unreachable: n > 0 always reaches a leaf *))
    | exception Out_of_budget -> `Truncated
  end
