module Vset = Digraph.Vset
module Vmap = Digraph.Vmap

type mapping = int Vmap.t

type outcome = Exhausted | Stopped | Timed_out

exception Stop_search of outcome

(* How many search-tree nodes are expanded between deadline checks. *)
let deadline_check_period = 256

(* Pattern vertices are matched in a connectivity-aware static order: start
   from a vertex of maximum degree, then repeatedly pick the unmatched vertex
   with the most already-ordered neighbors (ties broken by degree).  This is
   the classic VF2 ordering heuristic and keeps the frontier connected for
   connected patterns. *)
let pattern_order pattern =
  let verts = Digraph.vertex_list pattern in
  match verts with
  | [] -> [||]
  | _ ->
      let n = List.length verts in
      let chosen = Hashtbl.create n in
      let order = ref [] in
      let neighbor_count v =
        let nbrs = Vset.union (Digraph.succ pattern v) (Digraph.pred pattern v) in
        Vset.fold (fun w acc -> if Hashtbl.mem chosen w then acc + 1 else acc) nbrs 0
      in
      for _ = 1 to n do
        let best = ref None in
        List.iter
          (fun v ->
            if not (Hashtbl.mem chosen v) then begin
              let key = (neighbor_count v, Digraph.degree pattern v) in
              match !best with
              | None -> best := Some (v, key)
              | Some (_, bkey) -> if key > bkey then best := Some (v, key)
            end)
          verts;
        match !best with
        | None -> ()
        | Some (v, _) ->
            Hashtbl.replace chosen v true;
            order := v :: !order
      done;
      Array.of_list (List.rev !order)

let iter ?deadline ~pattern ~target f =
  let order = pattern_order pattern in
  let np = Array.length order in
  let nodes_expanded = ref 0 in
  let check_deadline () =
    incr nodes_expanded;
    match deadline with
    | Some d when !nodes_expanded mod deadline_check_period = 0 ->
        if Unix.gettimeofday () > d then raise (Stop_search Timed_out)
    | Some _ | None -> ()
  in
  (* core: pattern -> target; used_t: target vertices already used *)
  let core = Hashtbl.create np in
  let used_t = Hashtbl.create np in
  let feasible u v =
    (* degree look-ahead *)
    Digraph.out_degree target v >= Digraph.out_degree pattern u
    && Digraph.in_degree target v >= Digraph.in_degree pattern u
    && (* every already-mapped pattern neighbor of u must have the
          corresponding target edge *)
    Vset.for_all
      (fun w ->
        match Hashtbl.find_opt core w with
        | Some w' -> Digraph.mem_edge target v w'
        | None -> true)
      (Digraph.succ pattern u)
    && Vset.for_all
         (fun w ->
           match Hashtbl.find_opt core w with
           | Some w' -> Digraph.mem_edge target w' v
           | None -> true)
         (Digraph.pred pattern u)
  in
  let candidates u =
    (* If u has an already-mapped predecessor/successor, restrict candidates
       to the corresponding target adjacency; otherwise all unused target
       vertices. *)
    let from_mapped_neighbors =
      let via_pred =
        Vset.fold
          (fun w acc ->
            match Hashtbl.find_opt core w with
            | Some w' -> Some (match acc with
                | None -> Digraph.succ target w'
                | Some s -> Vset.inter s (Digraph.succ target w'))
            | None -> acc)
          (Digraph.pred pattern u) None
      in
      Vset.fold
        (fun w acc ->
          match Hashtbl.find_opt core w with
          | Some w' -> Some (match acc with
              | None -> Digraph.pred target w'
              | Some s -> Vset.inter s (Digraph.pred target w'))
          | None -> acc)
        (Digraph.succ pattern u) via_pred
    in
    match from_mapped_neighbors with
    | Some s -> Vset.filter (fun v -> not (Hashtbl.mem used_t v)) s
    | None -> Vset.filter (fun v -> not (Hashtbl.mem used_t v)) (Digraph.vertices target)
  in
  let rec extend depth =
    if depth = np then begin
      let m = Hashtbl.fold (fun u v acc -> Vmap.add u v acc) core Vmap.empty in
      match f m with `Continue -> () | `Stop -> raise (Stop_search Stopped)
    end
    else begin
      check_deadline ();
      let u = order.(depth) in
      Vset.iter
        (fun v ->
          if feasible u v then begin
            Hashtbl.replace core u v;
            Hashtbl.replace used_t v true;
            extend (depth + 1);
            Hashtbl.remove core u;
            Hashtbl.remove used_t v
          end)
        (candidates u)
    end
  in
  if np = 0 then Exhausted
  else if np > Digraph.num_vertices target
          || Digraph.num_edges pattern > Digraph.num_edges target
  then Exhausted
  else
    match extend 0 with () -> Exhausted | exception Stop_search o -> o

let find_first ?deadline ~pattern ~target () =
  let result = ref None in
  let _ =
    iter ?deadline ~pattern ~target (fun m ->
        result := Some m;
        `Stop)
  in
  !result

let exists ?deadline ~pattern ~target () =
  match find_first ?deadline ~pattern ~target () with Some _ -> true | None -> false

let find_all ?deadline ?max_matches ~pattern ~target () =
  let acc = ref [] in
  let count = ref 0 in
  let _ =
    iter ?deadline ~pattern ~target (fun m ->
        acc := m :: !acc;
        incr count;
        match max_matches with
        | Some k when !count >= k -> `Stop
        | Some _ | None -> `Continue)
  in
  List.rev !acc

let edge_image ~pattern m =
  Digraph.fold_edges
    (fun u v acc -> (Vmap.find u m, Vmap.find v m) :: acc)
    pattern []
  |> List.sort Digraph.Edge.compare

let find_distinct_images ?deadline ?max_matches ~pattern ~target () =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let count = ref 0 in
  let _ =
    iter ?deadline ~pattern ~target (fun m ->
        let key = edge_image ~pattern m in
        if Hashtbl.mem seen key then `Continue
        else begin
          Hashtbl.replace seen key true;
          acc := m :: !acc;
          incr count;
          match max_matches with
          | Some k when !count >= k -> `Stop
          | Some _ | None -> `Continue
        end)
  in
  List.rev !acc

let is_monomorphism ~pattern ~target m =
  let injective =
    let images = Vmap.fold (fun _ v acc -> v :: acc) m [] in
    List.length (List.sort_uniq Int.compare images) = List.length images
  in
  let total =
    Vset.for_all (fun u -> Vmap.mem u m) (Digraph.vertices pattern)
  in
  injective && total
  && Digraph.fold_edges
       (fun u v ok -> ok && Digraph.mem_edge target (Vmap.find u m) (Vmap.find v m))
       pattern true
