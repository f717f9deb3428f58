type profile = {
  n_vertices : int;
  n_edges : int;
  out_desc : int array;  (* out-degrees, descending *)
  in_desc : int array;  (* in-degrees, descending *)
}

type entry = { id : int; prof : profile }

type t = entry list

let profile_of g =
  let degs f =
    let a =
      Digraph.fold_vertices (fun v acc -> f v :: acc) g [] |> Array.of_list
    in
    Array.sort (fun a b -> Int.compare b a) a;
    a
  in
  {
    n_vertices = Digraph.num_vertices g;
    n_edges = Digraph.num_edges g;
    out_desc = degs (Digraph.out_degree g);
    in_desc = degs (Digraph.in_degree g);
  }

let compile patterns =
  let seen = Hashtbl.create 8 in
  List.map
    (fun (id, graph) ->
      if Hashtbl.mem seen id then
        invalid_arg (Printf.sprintf "Multi_pattern.compile: duplicate id %d" id);
      Hashtbl.replace seen id true;
      { id; prof = profile_of graph })
    patterns

(* sorted-dominance: for every k, the k-th largest pattern degree must not
   exceed the k-th largest target degree *)
let dominated pat tgt =
  let np = Array.length pat in
  np <= Array.length tgt
  &&
  let ok = ref true in
  for i = 0 to np - 1 do
    if pat.(i) > tgt.(i) then ok := false
  done;
  !ok

let passes prof tprof =
  prof.n_vertices <= tprof.n_vertices
  && prof.n_edges <= tprof.n_edges
  && dominated prof.out_desc tprof.out_desc
  && dominated prof.in_desc tprof.in_desc

let profile_of_view v =
  let out_desc, in_desc = Compact.degree_profile v in
  {
    n_vertices = Compact.num_vertices v;
    n_edges = Compact.num_edges v;
    out_desc;
    in_desc;
  }

let survivors_view t target =
  let tprof = profile_of_view target in
  List.filter_map (fun e -> if passes e.prof tprof then Some e.id else None) t
