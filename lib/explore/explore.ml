module D = Noc_graph.Digraph
module Acg = Noc_core.Acg
module Mapping = Noc_core.Mapping
module Syn = Noc_core.Synthesis
module Bb = Noc_core.Branch_bound
module L = Noc_primitives.Library
module P = Noc_primitives.Primitive
module Prng = Noc_util.Prng
module Obs = Noc_obs.Obs
module Json = Obs.Json

type axes = {
  mappings : Mapping.t array;
  subsets : (string * L.t) array;
  bw_scales : float array;
}

(* n! saturated at [cap + 1]: only the comparison against the cap matters *)
let factorial_capped ~cap n =
  let rec go acc i = if i > n then acc else if acc > cap then acc else go (acc * i) (i + 1) in
  go 1 2

let is_saver (e : L.entry) = P.impl_link_count e.prim < P.repr_edge_count e.prim

let popcount m =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 m

let subset_axis ~max_subset_bits library =
  let savers = List.filteri (fun i _ -> i < max_subset_bits) (List.filter is_saver library) in
  let k = List.length savers in
  let n_all = (1 lsl k) - 1 in
  let masks = List.init (1 lsl k) Fun.id in
  let masks =
    (* full library first, then fewer and fewer savers *)
    List.sort
      (fun a b -> match compare (popcount b) (popcount a) with 0 -> compare a b | c -> c)
      masks
  in
  let saver_ids = List.map (fun (e : L.entry) -> e.L.id) savers in
  let subset mask =
    let dropped =
      List.filteri (fun i _ -> mask land (1 lsl i) = 0) saver_ids
    in
    let prims =
      List.filter_map
        (fun (e : L.entry) -> if List.mem e.L.id dropped then None else Some e.L.prim)
        library
    in
    let label =
      if mask = n_all then "full"
      else if mask = 0 && k > 0 then "neutral"
      else
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) savers
        |> List.map (fun (e : L.entry) -> e.L.prim.P.name)
        |> String.concat "+"
    in
    let label = if label = "" then "full" else label in
    (label, L.make prims)
  in
  Array.of_list (List.map subset masks)

let mapping_axis ~max_mappings ~seed acg =
  let n = Acg.num_cores acg in
  if factorial_capped ~cap:max_mappings n <= max_mappings then
    Array.of_list (Mapping.all ~max_cores:n acg)
  else begin
    let rng = Prng.create ~seed in
    let image m = List.map snd (D.Vmap.bindings m) in
    let seen = Hashtbl.create 64 in
    let out = ref [ Mapping.identity acg ] in
    Hashtbl.replace seen (image (List.hd !out)) ();
    let count = ref 1 and attempts = ref 0 in
    (* distinct-permutation rejection loop; the attempt cap is a safety
       valve, unreachable when n! is far above the cap as here *)
    while !count < max_mappings && !attempts < 50 * max_mappings do
      incr attempts;
      let m = Mapping.random ~rng acg in
      let key = image m in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out := m :: !out;
        incr count
      end
    done;
    Array.of_list (List.rev !out)
  end

let axes ?(max_mappings = 24) ?(max_subset_bits = 4) ~seed ~library acg =
  if max_mappings < 1 then invalid_arg "Explore.axes: max_mappings < 1";
  {
    mappings = mapping_axis ~max_mappings ~seed acg;
    subsets = subset_axis ~max_subset_bits library;
    bw_scales = [| 0.5; 1.0; 2.0 |];
  }

let space_size a = Array.length a.mappings * Array.length a.subsets * Array.length a.bw_scales

type point = {
  index : int;
  mapping : int;
  subset : int;
  bw_scale : float;
  vec : Pareto.vector;
  cost : float;
  links : int;
}

let default_budget =
  Bb.Budget.(default |> with_timeout_s None |> with_max_nodes 50_000 |> with_domains 1)

let latency_of ~tech ~bw_scale acg arch =
  let capacity = bw_scale *. tech.Noc_energy.Technology.link_bandwidth in
  let loads = Syn.link_load acg arch in
  let link_delay u v =
    let load = match D.Edge_map.find_opt (u, v) loads with Some l -> l | None -> 0.0 in
    let util = Float.min 0.95 (load /. capacity) in
    1.0 +. (util /. (1.0 -. util))
  in
  let rec path_delay = function
    | a :: (b :: _ as rest) -> link_delay a b +. path_delay rest
    | _ -> 0.0
  in
  let weighted, volume =
    D.fold_edges
      (fun src dst (acc, vol) ->
        match Syn.route arch ~src ~dst with
        | None -> (acc, vol)
        | Some path ->
            let v = Acg.volume acg src dst in
            let w = if v > 0 then v else 1 in
            (acc +. (float_of_int w *. path_delay path), vol + w))
      (Acg.graph acg) (0.0, 0)
  in
  if volume = 0 then 0.0 else weighted /. float_of_int volume

let area_of ~fp ~bw_scale arch =
  let topo = arch.Syn.topology in
  let ports2 =
    D.fold_vertices
      (fun v acc ->
        let p = float_of_int (Syn.router_ports arch v) in
        acc +. (p *. p))
      topo 0.0
  in
  let wire_mm =
    D.fold_edges
      (fun u v acc ->
        if u < v then acc +. Noc_energy.Floorplan.distance_mm fp u v else acc)
      topo 0.0
  in
  bw_scale *. ((0.02 *. ports2) +. (0.01 *. wire_mm))

let evaluate ?(tech = Noc_energy.Technology.cmos_180nm) ?(budget = default_budget) axes acg
    index =
  let space = space_size axes in
  if index < 0 || index >= space then
    invalid_arg
      (Printf.sprintf "Explore.evaluate: index %d outside space of %d points" index space);
  let n_bw = Array.length axes.bw_scales in
  let n_sub = Array.length axes.subsets in
  let bi = index mod n_bw in
  let si = index / n_bw mod n_sub in
  let mi = index / n_bw / n_sub in
  let bw_scale = axes.bw_scales.(bi) in
  let _, library = axes.subsets.(si) in
  (* per-point determinism: sequential search, node budget only *)
  let budget = { budget with Bb.Budget.domains = 1; timeout_s = None } in
  let acg' = Mapping.apply axes.mappings.(mi) acg in
  let decomp, stats = Bb.decompose ~budget ~library acg' in
  let arch = Syn.custom acg' decomp in
  (* the floorplan depends only on the vertex-id range, which a permutation
     mapping preserves: every point of a scenario shares one placement *)
  let fp = Acg.grid_floorplan acg' in
  let vec =
    {
      Pareto.energy_pj = Syn.total_energy ~tech ~fp acg' arch;
      latency = latency_of ~tech ~bw_scale acg' arch;
      area_mm2 = area_of ~fp ~bw_scale arch;
    }
  in
  {
    index;
    mapping = mi;
    subset = si;
    bw_scale;
    vec;
    cost = stats.Bb.best_cost;
    links = Syn.link_count arch;
  }

type result = {
  evaluated : point array;
  front : point list;
  ref_point : Pareto.vector;
  hypervolume : float;
  space : int;
  steals : int;
}

let run ?(observe = Obs.disabled) ?tech ?budget ?(domains = 1) ?(points = 64) ~seed axes acg =
  let space = space_size axes in
  if space = 0 then invalid_arg "Explore.run: empty design space";
  let indices =
    if points <= 0 || points >= space then Array.init space Fun.id
    else begin
      (* the sample is a function of the seed alone, never of [domains] *)
      let arr = Array.init space Fun.id in
      Prng.shuffle (Prng.create ~seed) arr;
      let sel = Array.sub arr 0 points in
      Array.sort compare sel;
      sel
    end
  in
  let evaluated, ws =
    Obs.span observe ~cat:"explore"
      ~args:[ ("points", Json.Int (Array.length indices)); ("space", Json.Int space) ]
      "explore.evaluate"
      (fun () -> Noc_core.Ws.map ~domains (fun i -> evaluate ?tech ?budget axes acg i) indices)
  in
  let entries =
    Array.to_list (Array.map (fun p -> { Pareto.vec = p.vec; id = p.index }) evaluated)
  in
  let front_entries = Pareto.entries (Pareto.of_entries entries) in
  (* the incremental archive must agree with the exact O(n^2) filter *)
  assert (front_entries = Pareto.filter_reference entries);
  let by_index = Hashtbl.create (Array.length evaluated) in
  Array.iter (fun p -> Hashtbl.replace by_index p.index p) evaluated;
  let front = List.map (fun (e : Pareto.entry) -> Hashtbl.find by_index e.id) front_entries in
  let ref_point = Pareto.reference_point (List.map (fun e -> e.Pareto.vec) entries) in
  let hypervolume =
    Pareto.hypervolume ~ref_point (List.map (fun p -> p.vec) front)
  in
  if Obs.enabled observe then begin
    Obs.Counter.add (Obs.counter observe "explore.points") (Array.length evaluated);
    Obs.Counter.add (Obs.counter observe "explore.steals") ws.Noc_core.Ws.steals;
    Obs.Gauge.set (Obs.gauge observe "explore.front_size") (float_of_int (List.length front));
    Obs.Gauge.set (Obs.gauge observe "explore.hv") hypervolume
  end;
  { evaluated; front; ref_point; hypervolume; space; steals = ws.Noc_core.Ws.steals }

let mapping_image m = List.map snd (D.Vmap.bindings m)

let vector_json (v : Pareto.vector) =
  Json.Obj
    [
      ("energy_pj", Json.Float v.energy_pj);
      ("latency", Json.Float v.latency);
      ("area_mm2", Json.Float v.area_mm2);
    ]

let point_json axes p =
  let label, _ = axes.subsets.(p.subset) in
  Json.Obj
    [
      ("index", Json.Int p.index);
      ("mapping", Json.Int p.mapping);
      ( "mapping_image",
        Json.List (List.map (fun t -> Json.Int t) (mapping_image axes.mappings.(p.mapping))) );
      ("subset", Json.Str label);
      ("bw_scale", Json.Float p.bw_scale);
      ("energy_pj", Json.Float p.vec.Pareto.energy_pj);
      ("latency", Json.Float p.vec.Pareto.latency);
      ("area_mm2", Json.Float p.vec.Pareto.area_mm2);
      ("cost", Json.Float p.cost);
      ("links", Json.Int p.links);
    ]

let to_json ?(name = "acg") axes r =
  Json.Obj
    [
      ("schema", Json.Str "nocsynth-explore");
      ("version", Json.Int 1);
      ("scenario", Json.Str name);
      ( "axes",
        Json.Obj
          [
            ("mappings", Json.Int (Array.length axes.mappings));
            ( "subsets",
              Json.List
                (Array.to_list (Array.map (fun (l, _) -> Json.Str l) axes.subsets)) );
            ( "bw_scales",
              Json.List
                (Array.to_list (Array.map (fun b -> Json.Float b) axes.bw_scales)) );
          ] );
      ("space", Json.Int r.space);
      ("points", Json.Int (Array.length r.evaluated));
      ("front_size", Json.Int (List.length r.front));
      ("ref_point", vector_json r.ref_point);
      ("hypervolume", Json.Float r.hypervolume);
      ("front", Json.List (List.map (point_json axes) r.front));
    ]

let csv_header = "scenario,index,mapping,subset,bw_scale,energy_pj,latency,area_mm2,cost,links"

let to_csv_rows ?(name = "acg") axes r =
  List.map
    (fun p ->
      let label, _ = axes.subsets.(p.subset) in
      Printf.sprintf "%s,%d,%d,%s,%g,%.6f,%.6f,%.6f,%g,%d" name p.index p.mapping label
        p.bw_scale p.vec.Pareto.energy_pj p.vec.Pareto.latency p.vec.Pareto.area_mm2 p.cost
        p.links)
    r.front
