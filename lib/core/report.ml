type t = {
  acg_cores : int;
  acg_flows : int;
  total_volume : int;
  listing : string;
  histogram : (string * int) list;
  remainder_edges : int;
  links : int;
  max_hops : int;
  avg_hops : float;
  deadlock_free : bool;
  vcs_needed : int;
  violations : string list;
  energy_pj : float option;
  search : Branch_bound.stats;
}

let build ?tech ?fp ?constraints ~cost ~acg ~decomposition ~stats () =
  let arch = Synthesis.custom acg decomposition in
  let listing =
    Format.asprintf "%a" (Decomposition.pp_with_cost cost acg) decomposition
  in
  let dead = Deadlock.analyze arch in
  let violations =
    match constraints with
    | None -> []
    | Some c ->
        List.map (Format.asprintf "%a" Constraints.pp_violation) (Constraints.check c acg arch)
  in
  let energy_pj =
    match (tech, fp) with
    | Some tech, Some fp -> Some (Synthesis.total_energy ~tech ~fp acg arch)
    | _ -> None
  in
  {
    acg_cores = Acg.num_cores acg;
    acg_flows = Acg.num_flows acg;
    total_volume = Acg.total_volume acg;
    listing;
    histogram = Decomposition.primitive_histogram decomposition;
    remainder_edges = Noc_graph.Digraph.num_edges decomposition.Decomposition.remainder;
    links = Synthesis.link_count arch;
    max_hops = Synthesis.max_hops arch;
    avg_hops = Synthesis.avg_hops acg arch;
    deadlock_free = dead.Deadlock.cdg_cycle = None;
    vcs_needed = dead.Deadlock.vcs_needed;
    violations;
    energy_pj;
    search = stats;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "application: %d cores, %d flows, %d bits total@," t.acg_cores
    t.acg_flows t.total_volume;
  Format.fprintf ppf "@,decomposition:@,%s" t.listing;
  (if t.histogram <> [] then begin
     Format.fprintf ppf "primitives:";
     List.iter (fun (n, k) -> Format.fprintf ppf " %dx %s" k n) t.histogram;
     Format.fprintf ppf "@,"
   end);
  Format.fprintf ppf "remainder: %d dedicated edge(s)@," t.remainder_edges;
  Format.fprintf ppf "@,architecture: %d links, max %d hops, %.2f avg hops@," t.links
    t.max_hops t.avg_hops;
  Format.fprintf ppf "deadlock: %s (VCs needed: %d)@,"
    (if t.deadlock_free then "free" else "channel-dependency cycle detected")
    t.vcs_needed;
  (match t.violations with
  | [] -> Format.fprintf ppf "constraints: satisfied or not checked@,"
  | vs ->
      Format.fprintf ppf "constraint violations:@,";
      List.iter (fun v -> Format.fprintf ppf "  - %s@," v) vs);
  (match t.energy_pj with
  | Some e -> Format.fprintf ppf "Eq. 5 energy: %.1f pJ@," e
  | None -> ());
  Format.fprintf ppf
    "search: %d nodes, %d matchings, %d leaves, %d pruned, %d incumbent(s), %.3f s%s@,"
    t.search.Branch_bound.nodes t.search.Branch_bound.matches_tried
    t.search.Branch_bound.leaves t.search.Branch_bound.pruned
    t.search.Branch_bound.incumbents t.search.Branch_bound.elapsed_s
    (if t.search.Branch_bound.timed_out then " (budget exhausted)" else "");
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

let to_json t =
  let module J = Noc_obs.Obs.Json in
  J.Obj
    [
      ("acg_cores", J.Int t.acg_cores);
      ("acg_flows", J.Int t.acg_flows);
      ("total_volume", J.Int t.total_volume);
      ( "primitives",
        J.Obj (List.map (fun (n, k) -> (n, J.Int k)) t.histogram) );
      ("remainder_edges", J.Int t.remainder_edges);
      ("links", J.Int t.links);
      ("max_hops", J.Int t.max_hops);
      ("avg_hops", J.Float t.avg_hops);
      ("deadlock_free", J.Bool t.deadlock_free);
      ("vcs_needed", J.Int t.vcs_needed);
      ("violations", J.List (List.map (fun v -> J.Str v) t.violations));
      ( "energy_pj",
        match t.energy_pj with Some e -> J.Float e | None -> J.Null );
      ("search", Branch_bound.stats_to_json t.search);
    ]
