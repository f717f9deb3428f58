module C = Compact

exception Out_of_budget

(* One labeling's graph view: edge labels read once, aligned with the CSR
   successor and predecessor slices, and scratch arrays every refinement
   pass reuses. *)
type state = {
  g : C.t;
  n : int;
  succ_lab : int array;  (** label of edge [u -> succ_arr.(k)] at [k] *)
  pred_lab : int array;  (** label of edge [pred_arr.(k) -> v] at [k] *)
  labels : int;  (** one more than the largest label *)
  succ_key : int array;  (** per-pass (label, color) keys, aligned like [succ_lab] *)
  pred_key : int array;
  starts : int array;  (** per pass: where each color's run in [ord] starts *)
  ord : int array;  (** per pass: the vertices grouped by color *)
}

let make_state ~edge_label (g : C.t) =
  let n = g.C.n and m = g.C.n_edges in
  let succ_lab = Array.make m 0 and pred_lab = Array.make m 0 in
  (* pred slices list their sources in ascending order, so visiting the
     edges source by source fills each one front to back *)
  let cur = Array.sub g.C.pred_off 0 n in
  let labels = ref 1 in
  for u = 0 to n - 1 do
    for k = g.C.succ_off.(u) to g.C.succ_off.(u + 1) - 1 do
      let v = g.C.succ_arr.(k) in
      let l = edge_label u v in
      succ_lab.(k) <- l;
      pred_lab.(cur.(v)) <- l;
      cur.(v) <- cur.(v) + 1;
      if l >= !labels then labels := l + 1
    done
  done;
  {
    g;
    n;
    succ_lab;
    pred_lab;
    labels = !labels;
    succ_key = Array.make m 0;
    pred_key = Array.make m 0;
    starts = Array.make (n + 2) 0;
    ord = Array.make n 0;
  }

(* Sort a.(lo) .. a.(hi - 1) in place: insertion sort on the short runs
   most vertices and cells have, [Array.sort] (O(d log d)) on a copy of
   a long one. *)
let sort_slice cmp a lo hi =
  if hi - lo <= 12 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && cmp a.(!j) x > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let run = Array.sub a lo (hi - lo) in
    Array.sort cmp run;
    Array.blit run 0 a lo (hi - lo)
  end

(* Lexicographic order on two runs, a proper prefix first: OCaml's order
   on the lists the runs stand for. *)
let compare_runs a i ie j je =
  let rec go i j =
    if i = ie then if j = je then 0 else -1
    else if j = je then 1
    else
      let c = Int.compare a.(i) a.(j) in
      if c <> 0 then c else go (i + 1) (j + 1)
  in
  go i j

(* One refinement pass: recolor every vertex by (old color, sorted
   (label, color) keys over its successors, same over its predecessors)
   and normalize the new colors to the ranks of the distinct signatures.
   A key [label * (n + 1) + color] orders like the pair, since colors are
   at most [n].  Vertices are grouped by old color (a counting sort), so
   only non-singleton groups need keys and sorting; the old color being
   the first signature component, the new partition refines the old one,
   and an unchanged color count means a fixed partition. *)
let refine_pass st colors =
  let n = st.n and g = st.g in
  let starts = st.starts and ord = st.ord in
  Array.fill starts 0 (n + 2) 0;
  Array.iter (fun c -> starts.(c + 1) <- starts.(c + 1) + 1) colors;
  for c = 1 to n + 1 do
    starts.(c) <- starts.(c) + starts.(c - 1)
  done;
  (* a stable counting sort: [starts.(c)] .. [starts.(c + 1) - 1] is the
     run of color [c] in [ord], in ascending vertex order *)
  let fill = Array.sub starts 0 (n + 1) in
  Array.iteri
    (fun v c ->
      ord.(fill.(c)) <- v;
      fill.(c) <- fill.(c) + 1)
    colors;
  let keys v =
    for k = g.C.succ_off.(v) to g.C.succ_off.(v + 1) - 1 do
      st.succ_key.(k) <- (st.succ_lab.(k) * (n + 1)) + colors.(g.C.succ_arr.(k))
    done;
    sort_slice Int.compare st.succ_key g.C.succ_off.(v) g.C.succ_off.(v + 1);
    for k = g.C.pred_off.(v) to g.C.pred_off.(v + 1) - 1 do
      st.pred_key.(k) <- (st.pred_lab.(k) * (n + 1)) + colors.(g.C.pred_arr.(k))
    done;
    sort_slice Int.compare st.pred_key g.C.pred_off.(v) g.C.pred_off.(v + 1)
  in
  let compare_sig u v =
    let c =
      compare_runs st.succ_key g.C.succ_off.(u) g.C.succ_off.(u + 1) g.C.succ_off.(v)
        g.C.succ_off.(v + 1)
    in
    if c <> 0 then c
    else
      compare_runs st.pred_key g.C.pred_off.(u) g.C.pred_off.(u + 1) g.C.pred_off.(v)
        g.C.pred_off.(v + 1)
  in
  let out = Array.make n 0 in
  let next = ref 0 in
  for c = 0 to n do
    let i = starts.(c) and j = starts.(c + 1) in
    if j > i then begin
      if j - i > 1 then begin
        for p = i to j - 1 do
          keys ord.(p)
        done;
        sort_slice compare_sig ord i j
      end;
      out.(ord.(i)) <- !next;
      for p = i + 1 to j - 1 do
        if compare_sig ord.(p - 1) ord.(p) <> 0 then incr next;
        out.(ord.(p)) <- !next
      done;
      incr next
    end
  done;
  (out, !next)

let refine ~budget st colors ncolors =
  let rec loop colors ncolors =
    if !budget <= 0 then raise Out_of_budget;
    decr budget;
    let colors', ncolors' = refine_pass st colors in
    if ncolors' = ncolors then (colors', ncolors') else loop colors' ncolors'
  in
  loop colors ncolors

(* The first smallest non-singleton cell of a normalized coloring with
   [k < n] colors, by (size, color id), in ascending vertex order: color
   ids are signature ranks, hence isomorphism-invariant, so the branching
   target is the same cell in any relabeling of the graph. *)
let target_cell colors k =
  let size = Array.make k 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) colors;
  let best = ref (-1) in
  Array.iteri
    (fun c s -> if s >= 2 && (!best < 0 || s < size.(!best)) then best := c)
    size;
  let c = !best in
  let cell = Array.make size.(c) 0 and i = ref 0 in
  Array.iteri
    (fun v cv ->
      if cv = c then begin
        cell.(!i) <- v;
        incr i
      end)
    colors;
  cell

(* The edge list of a discrete coloring [rank] as sorted codes
   [((rank u * n) + rank v) * labels + label]: one int per
   (rank src, rank dst, label) triple, ordered like the triples.  The
   search minimizes it; certificates all have one length, so [compare]
   orders them lexicographically. *)
let certificate st rank =
  let g = st.g and n = st.n in
  let cert = Array.make g.C.n_edges 0 in
  for u = 0 to n - 1 do
    for k = g.C.succ_off.(u) to g.C.succ_off.(u + 1) - 1 do
      cert.(k) <- (((rank.(u) * n) + rank.(g.C.succ_arr.(k))) * st.labels) + st.succ_lab.(k)
    done
  done;
  Array.sort Int.compare cert;
  cert

(* A label-preserving automorphism, kept as its moved points (ascending)
   and their images. *)
type aut = { moved : int array; image : int array }

let fixes a v =
  let rec go lo hi =
    lo >= hi
    ||
    let mid = (lo + hi) / 2 in
    let x = a.moved.(mid) in
    if x = v then false else if x < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a.moved)

(* An open node of the search.  [orbits] is a union-find over the vertices
   whose roots are the least vertex of each orbit of the group generated
   by [auts], the stored automorphisms that fix every vertex individualized
   on the node's path; it stays empty until the first one arrives. *)
type node = {
  via : int;  (** the vertex individualized to reach the node; -1 at the root *)
  mutable auts : aut list;
  mutable orbits : int array;
}

let rec find uf v =
  let p = uf.(v) in
  if p = v then v
  else
    let r = find uf p in
    uf.(v) <- r;
    r

let add_aut n node a =
  node.auts <- a :: node.auts;
  if Array.length node.orbits = 0 then node.orbits <- Array.init n Fun.id;
  let uf = node.orbits in
  Array.iteri
    (fun i u ->
      let ru = find uf u and rv = find uf a.image.(i) in
      if ru < rv then uf.(rv) <- ru else if rv < ru then uf.(ru) <- rv)
    a.moved

(* [v] shares an orbit with a smaller vertex: an earlier sibling in the
   same target cell, whose subtree an automorphism maps onto [v]'s *)
let pruned node v = Array.length node.orbits > 0 && find node.orbits v <> v

(* A child of [node] through [v], seeded with the automorphisms of [node]
   that also fix [v] *)
let child n node v =
  let c = { via = v; auts = []; orbits = [||] } in
  List.iter (fun a -> if fixes a v then add_aut n c a) node.auts;
  c

let canonical_order ?(edge_label = fun _ _ -> 0) ?(max_refines = 10_000) (g : C.t) =
  let n = g.C.n in
  if n = 0 then `Canonical [||]
  else begin
    let st = make_state ~edge_label g in
    let budget = ref max_refines in
    (* the least certificate so far, the first leaf reaching it, and that
       leaf's inverse *)
    let best = ref None in
    let root = { via = -1; auts = []; orbits = [||] } in
    (* the open nodes, root first: [path.(d)] is the node at depth [d] *)
    let path = Array.make n root in
    let inverse rank =
      let inv = Array.make n 0 in
      Array.iteri (fun v r -> inv.(r) <- v) rank;
      inv
    in
    (* [depth] nodes are open above the leaf *)
    let leaf depth rank =
      let cert = certificate st rank in
      match !best with
      | None -> best := Some (cert, rank, inverse rank)
      | Some (bc, _, binv) ->
          let c = compare cert bc in
          if c < 0 then best := Some (cert, rank, inverse rank)
          else if c = 0 then begin
            (* v -> binv.(rank.(v)) maps this leaf onto the best one with
               the same certificate: an automorphism.  Every open node
               whose path it fixes gets it. *)
            let gamma = Array.map (fun r -> binv.(r)) rank in
            let moved =
              Array.of_list (List.filter (fun v -> gamma.(v) <> v) (List.init n Fun.id))
            in
            let a = { moved; image = Array.map (Array.get gamma) moved } in
            let rec give d =
              if d < depth && (d = 0 || gamma.(path.(d).via) = path.(d).via) then begin
                add_aut n path.(d) a;
                give (d + 1)
              end
            in
            if Array.length moved > 0 then give 0
          end
    in
    let rec visit depth node colors k =
      path.(depth) <- node;
      Array.iter
        (fun v ->
          if not (pruned node v) then begin
            let c = Array.copy colors in
            (* individualize [v]: a fresh color above every normalized id *)
            c.(v) <- n;
            let c, k = refine ~budget st c (k + 1) in
            if k = n then leaf (depth + 1) c else visit (depth + 1) (child n node v) c k
          end)
        (target_cell colors k)
    in
    match refine ~budget st (Array.make n 0) 1 with
    | exception Out_of_budget -> `Truncated
    | colors, k when k = n -> `Canonical colors
    | colors, k -> (
        match visit 0 root colors k with
        | () -> (
            match !best with
            | Some (_, rank, _) -> `Canonical rank
            | None -> `Truncated (* unreachable: a branching root reaches a leaf *))
        | exception Out_of_budget -> `Truncated)
  end
