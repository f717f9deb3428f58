module D = Noc_graph.Digraph
module G = Noc_graph.Generators
module T = Noc_graph.Traversal
module Vf2 = Noc_graph.Vf2
module Vf2_map = Noc_graph.Vf2_map
module C = Noc_graph.Compact
module P = Noc_primitives.Primitive
module L = Noc_primitives.Library
module Acg = Noc_core.Acg
module Acg_io = Noc_core.Acg_io
module Bb = Noc_core.Branch_bound
module Cost = Noc_core.Cost
module Decomposition = Noc_core.Decomposition
module Matching = Noc_core.Matching
module Syn = Noc_core.Synthesis
module Dead = Noc_core.Deadlock
module Prng = Noc_util.Prng
module Timer = Noc_util.Timer
module Obs = Noc_obs.Obs
module Tech = Noc_energy.Technology

type failure = {
  property : string;
  case_seed : int;
  detail : string;
  acg : Acg.t;
  shrink_steps : int;
}

type report = {
  cases : int;
  properties : int;
  failures : failure list;
  shrink_steps : int;
  elapsed_s : float;
}

let property_names =
  [
    "decompose-oracle";
    "bisection-oracle";
    "vf2-naive";
    "cost-recompute";
    "deadlock-cdg";
    "edge-partition";
    "routes-valid";
    "reroute-avoids-faults";
    "fallback-gap";
    "flit-energy";
    "engine-reset";
  ]

(* ------------------------------------------------------------------ *)
(* Case generation                                                     *)

let gen_acg ~rng =
  let n = Prng.int_in rng 3 8 in
  let g =
    match Prng.int rng 5 with
    | 0 -> G.erdos_renyi ~rng ~n ~p:(0.15 +. Prng.float rng 0.35)
    | 1 -> G.random_dag ~rng ~n ~p:(0.2 +. Prng.float rng 0.4)
    | 2 ->
        (* a primitive-shaped part planted among noise edges: exercises the
           decomposition paths that actually find matchings *)
        let part =
          Prng.choose rng
            [
              G.complete (min n 4);
              G.star (min n (Prng.int_in rng 3 5));
              G.loop (min n (Prng.int_in rng 3 6));
              G.path (min n (Prng.int_in rng 3 6));
            ]
        in
        D.union
          (G.planted ~rng ~n ~parts:[ part ])
          (G.gnm ~rng ~n ~m:(Prng.int rng (n + 1)))
    | 3 ->
        (* large size class: 12-16-core planted-community graphs, the
           shape of the benchmark scaling tier.  The exponential oracles
           bail out via their own range guards here; the polynomial
           differential checks and the anytime/fallback contract get
           exercised well above the 3-8-core comfort zone. *)
        let n = Prng.int_in rng 12 16 in
        G.communities ~rng ~n ~k:(max 1 (n / 5))
          ~p_in:(0.5 +. Prng.float rng 0.4)
          ~p_out:(2.0 /. float_of_int n)
    | _ -> G.gnm ~rng ~n ~m:(Prng.int_in rng 1 (2 * n))
  in
  let volume, bandwidth =
    List.fold_left
      (fun (vol, bw) e ->
        ( D.Edge_map.add e (1 + Prng.int rng 256) vol,
          D.Edge_map.add e (Prng.float rng 0.5) bw ))
      (D.Edge_map.empty, D.Edge_map.empty)
      (D.edges g)
  in
  Acg.make ~graph:g ~volume ~bandwidth ()

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let approx_eq ?(tol = 1e-6) a b =
  Float.abs (a -. b) <= tol *. (1. +. Float.abs a +. Float.abs b)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* properties that need auxiliary randomness derive it from the case
   itself, so a saved ACG replays identically *)
let graph_seed g = Hashtbl.hash (D.edges g, D.vertex_list g) land max_int

let prop_decompose library acg =
  let g = Acg.graph acg in
  match Exact.optimal_cost ~library g with
  | exception Invalid_argument m when contains_substring m "state space" ->
      Ok () (* out of oracle range; nothing to compare *)
  | oracle -> (
      let wide = { Bb.default_options with max_matches_per_step = max_int } in
      let d_wide, s_wide = Bb.decompose ~options:wide ~library acg in
      let d_def, s_def = Bb.decompose ~library acg in
      if not (Decomposition.is_valid_for acg d_wide) then
        fail "wide-beam decomposition is not valid for the ACG"
      else if not (Decomposition.is_valid_for acg d_def) then
        fail "default decomposition is not valid for the ACG"
      else if s_wide.Bb.timed_out then Ok () (* budget exhausted: no claim *)
      else if not (approx_eq s_wide.Bb.best_cost oracle) then
        fail "wide-beam decompose cost %g, exhaustive optimum %g" s_wide.Bb.best_cost
          oracle
      else
        match Decomposition.cost Cost.Edge_count acg d_wide with
        | c when not (approx_eq c s_wide.Bb.best_cost) ->
            fail "wide-beam best_cost %g but its decomposition recosts to %g"
              s_wide.Bb.best_cost c
        | _ ->
            if s_def.Bb.best_cost +. 1e-9 < oracle then
              fail "default decompose cost %g beats the exhaustive optimum %g"
                s_def.Bb.best_cost oracle
            else if s_def.Bb.best_cost > float_of_int (D.num_edges g) +. 1e-9 then
              fail "default decompose cost %g exceeds the all-remainder cost %d"
                s_def.Bb.best_cost (D.num_edges g)
            else Ok ())

let prop_bisection acg =
  let g = Acg.graph acg in
  let n = D.num_vertices g in
  if n < 2 then Ok ()
  else
    let rng = Prng.create ~seed:(graph_seed g) in
    let half, cut = T.min_bisection_cut ~rng g in
    let k = D.Vset.cardinal half in
    if k <> n / 2 && k <> n - (n / 2) then
      fail "heuristic half has %d of %d vertices: not balanced" k n
    else if not (D.Vset.subset half (D.vertices g)) then
      fail "heuristic half contains unknown vertices"
    else
      let recount = Bisection.cut_size g half in
      let _, best = Bisection.min_cut g in
      if recount <> cut then
        fail "heuristic reports cut %d but its half cuts %d pairs" cut recount
      else if cut < best then
        fail "heuristic cut %d below the brute-force optimum %d" cut best
      else Ok ()

(* VF2 on a deletion overlay must enumerate exactly the base matches whose
   edge image survives, in base order: the search matches on overlays
   throughout, and a memo of cost-rejected entries in the greedy leaf pass
   would rest on the order (DESIGN §6).  Two deletion rounds (every third
   edge, then every fourth of the rest) also exercise merging into an
   existing overlay. *)
let overlay_of target =
  let every k es = List.filteri (fun i _ -> i mod k = k - 1) es in
  let first = every 3 (D.edges target) in
  let view = C.delete_edges (C.view (C.freeze target)) first in
  C.delete_edges view (every 4 (C.fold_edges (fun u v acc -> (u, v) :: acc) view []))

let prop_vf2 library acg =
  let target = Acg.graph acg in
  (* the naive enumerator is the ground truth, but its unpruned
     backtracking explodes on the dense large size class; beyond its
     range the two production engines still cross-check each other *)
  let naive_in_range = D.num_vertices target <= 8 in
  let overlay = overlay_of target in
  List.fold_left
    (fun acc entry ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          let pattern = entry.L.prim.P.repr in
          let name = entry.L.prim.P.name in
          if D.num_vertices pattern > D.num_vertices target then Ok ()
          else
            let fast = Vf2.find_all ~pattern ~target () in
            let reference = Vf2_map.find_all ~pattern ~target () in
            let on_overlay =
              let acc = ref [] in
              ignore
                (Vf2.iter_view ~pattern:(C.freeze pattern) ~target:overlay (fun m ->
                     acc := m :: !acc;
                     `Continue));
              List.rev !acc
            in
            let surviving =
              List.filter
                (fun m ->
                  List.for_all
                    (fun (u, v) -> C.mem_edge overlay u v)
                    (Vf2.edge_image ~pattern m))
                fast
            in
            if Iso.canonical fast <> Iso.canonical reference then
              fail "%s: CSR VF2 finds %d matches, map VF2 %d (or different maps)"
                name (List.length fast) (List.length reference)
            else if
              not (List.for_all (Vf2.is_monomorphism ~pattern ~target) fast)
            then fail "%s: VF2 returned a non-monomorphism" name
            else if
              List.map D.Vmap.bindings on_overlay <> List.map D.Vmap.bindings surviving
            then
              fail "%s: VF2 on a deletion overlay finds %d matches, not the %d surviving \
                    base matches in base order"
                name (List.length on_overlay) (List.length surviving)
            else if not naive_in_range then Ok ()
            else
              let naive = Iso.canonical (Iso.find_all ~pattern ~target) in
              if Iso.canonical fast <> naive then
                fail "%s: CSR VF2 finds %d matches, the naive oracle %d (or different maps)"
                  name (List.length fast) (List.length naive)
              else
                let sets =
                  Vf2.find_distinct_images ~pattern ~target ()
                  |> List.map (fun m -> Vf2.edge_image ~pattern m)
                  |> List.sort_uniq compare
                in
                if sets <> Iso.covered_sets ~pattern ~target then
                  fail "%s: distinct covered-edge-set families disagree" name
                else Ok ())
    (Ok ()) library

let fuzz_tech = Tech.cmos_180nm

let prop_cost library acg =
  let d, _ = Bb.decompose ~library acg in
  let edge_prod = Decomposition.cost Cost.Edge_count acg d in
  let edge_oracle = Recost.decomposition_cost Cost.Edge_count acg d in
  if not (approx_eq edge_prod edge_oracle) then
    fail "edge-count cost: production %g, first-principles %g" edge_prod edge_oracle
  else
    let c = Cost.Energy { tech = fuzz_tech; fp = Acg.grid_floorplan acg } in
    let prod = Decomposition.cost c acg d in
    let oracle = Recost.decomposition_cost c acg d in
    if not (approx_eq prod oracle) then
      fail "energy cost: production %.6f pJ, first-principles %.6f pJ" prod oracle
    else Ok ()

let prop_deadlock library acg =
  let d, _ = Bb.decompose ~library acg in
  let arch = Syn.custom acg d in
  let prod_edges = List.sort compare (Dead.channel_dependency_graph arch) in
  let oracle_edges = Cdg.cdg_edges arch in
  if prod_edges <> oracle_edges then
    fail "CDG edge sets differ: production %d edges, oracle %d"
      (List.length prod_edges) (List.length oracle_edges)
  else
    let report = Dead.analyze arch in
    let free_prod = Dead.is_deadlock_free arch in
    let free_oracle = Cdg.is_deadlock_free arch in
    if free_prod <> free_oracle then
      fail "is_deadlock_free %b, independent CDG check says %b" free_prod free_oracle
    else if (report.Dead.cdg_cycle = None) <> free_oracle then
      fail "analyze reports %s but the CDG is %s"
        (if report.Dead.cdg_cycle = None then "no cycle" else "a cycle")
        (if free_oracle then "acyclic" else "cyclic")
    else if report.Dead.vcs_needed < 1 then
      fail "vcs_needed = %d < 1" report.Dead.vcs_needed
    else if free_oracle && report.Dead.vcs_needed <> 1 then
      fail "deadlock-free routing but vcs_needed = %d" report.Dead.vcs_needed
    else Ok ()

let prop_partition library acg =
  let d, _ = Bb.decompose ~library acg in
  let covered =
    List.concat_map (fun m -> m.Matching.covered) d.Decomposition.matchings
  in
  let all =
    List.sort D.Edge.compare (covered @ D.edges d.Decomposition.remainder)
  in
  if all <> D.edges (Acg.graph acg) then
    fail "matchings + remainder do not partition the ACG edges (Eq. 2)"
  else if not (Decomposition.is_valid_for acg d) then
    fail "is_valid_for rejects the returned decomposition"
  else Ok ()

let prop_routes library acg =
  let d, _ = Bb.decompose ~library acg in
  let arch = Syn.custom acg d in
  if not (Syn.routes_valid arch) then
    fail "routes_valid is false on a synthesized architecture"
  else
    let g = Acg.graph acg in
    let missing =
      List.filter (fun (u, v) -> Syn.route arch ~src:u ~dst:v = None) (D.edges g)
    in
    if missing <> [] then fail "%d ACG flows have no route" (List.length missing)
    else
      (* independent load recomputation: the aggregate bandwidth-hops of the
         per-link load map must equal the sum over flows of bw x hops *)
      let expect =
        List.fold_left
          (fun acc (u, v) ->
            match Syn.route arch ~src:u ~dst:v with
            | None -> acc
            | Some p ->
                acc +. (Acg.bandwidth acg u v *. float_of_int (List.length p - 1)))
          0. (D.edges g)
      in
      let total =
        D.Edge_map.fold (fun _ l acc -> acc +. l) (Syn.link_load acg arch) 0.
      in
      if not (approx_eq expect total) then
        fail "aggregate link load %.9f, recomputed from routes %.9f" total expect
      else Ok ()

(* Differential check of the graceful-degradation layer: fail a few links
   and up to two switches, reroute statically, and verify against the
   brute-force path search that (a) no degraded route crosses a failed
   link or visits a failed switch, (b) the degraded table is valid, and
   (c) the disconnected-flow verdicts are exactly the flows the oracle
   cannot connect while avoiding the failed resources. *)
let prop_reroute library acg =
  let d, _ = Bb.decompose ~library acg in
  let arch = Syn.custom acg d in
  let links = D.undirected_edges arch.Syn.topology in
  if links = [] then Ok ()
  else begin
    let rng = Prng.create ~seed:(graph_seed (Acg.graph acg) lxor 0x7e57ab1e) in
    let k = 1 + Prng.int rng (min 3 (List.length links)) in
    let failed = List.sort compare (Prng.sample rng k links) in
    let switches =
      List.sort compare
        (Prng.sample rng (Prng.int rng 3) (D.vertex_list arch.Syn.topology))
    in
    let faults =
      List.map (fun (u, v) -> Noc_resil.Fault.link u v) failed
      @ List.map Noc_resil.Fault.switch switches
    in
    let out = Noc_resil.Reroute.apply arch ~faults in
    let norm (a, b) = if a <= b then (a, b) else (b, a) in
    let crosses path =
      let rec go = function
        | a :: (b :: _ as rest) -> List.mem (norm (a, b)) failed || go rest
        | [ _ ] | [] -> false
      in
      go path
    in
    let visits_failed_switch path = List.exists (fun v -> List.mem v switches) path in
    let degraded = out.Noc_resil.Reroute.arch in
    let count bad_path =
      D.Edge_map.fold (fun _ p n -> if bad_path p then n + 1 else n) degraded.Syn.routes 0
    in
    let crossing = count crosses and visiting = count visits_failed_switch in
    if crossing > 0 then fail "%d degraded routes traverse a failed link" crossing
    else if visiting > 0 then fail "%d degraded routes visit a failed switch" visiting
    else if not (Syn.routes_valid degraded) then fail "degraded routing table is invalid"
    else begin
      let flows = D.edges (Acg.graph acg) in
      let parts =
        List.sort compare
          (out.Noc_resil.Reroute.kept @ out.Noc_resil.Reroute.rerouted
         @ out.Noc_resil.Reroute.disconnected)
      in
      if parts <> List.sort compare flows then
        fail "kept/rerouted/disconnected do not partition the flows"
      else
        List.fold_left
          (fun acc (s, dst) ->
            match acc with
            | Error _ -> acc
            | Ok () ->
                let oracle_reaches =
                  Paths.exists_path ~banned_links:failed ~banned_switches:switches
                    arch.Syn.topology ~src:s ~dst
                in
                let claimed_disconnected =
                  List.mem (s, dst) out.Noc_resil.Reroute.disconnected
                in
                if claimed_disconnected = oracle_reaches then
                  fail "flow %d->%d: reroute says %s, brute-force path search says %s" s
                    dst
                    (if claimed_disconnected then "disconnected" else "connected")
                    (if oracle_reaches then "a path survives" else "no path survives")
                else if oracle_reaches && Syn.route degraded ~src:s ~dst = None then
                  fail "flow %d->%d: connected but lost its route" s dst
                else Ok ())
          (Ok ()) flows
    end
  end

(* The anytime/fallback contract: under a budget far too small to finish,
   a fallback-enabled search must still return a valid decomposition with
   a finite cost no worse than all-remainder, and the reported optimality
   gap must bracket the true optimum whenever the exhaustive oracle is in
   range — gap_pct is measured against the root lower bound lb0 <= opt,
   so best <= opt * (1 + gap/100) has to hold. *)
let prop_fallback_gap library acg =
  let g = Acg.graph acg in
  let options = { Bb.default_options with fallback = true } in
  let budget = Bb.Budget.(default |> with_timeout_s None |> with_max_nodes 25) in
  let d, st = Bb.decompose ~options ~budget ~library acg in
  if not (Decomposition.is_valid_for acg d) then
    fail "fallback decomposition is not valid for the ACG"
  else if not (Float.is_finite st.Bb.best_cost) then
    fail "fallback-enabled search returned no incumbent"
  else if st.Bb.best_cost > float_of_int (D.num_edges g) +. 1e-9 then
    fail "fallback cost %g exceeds the all-remainder cost %d" st.Bb.best_cost
      (D.num_edges g)
  else
    match st.Bb.gap_pct with
    | Some gap when gap < 0.0 -> fail "negative optimality gap %g%%" gap
    | Some _ when not st.Bb.timed_out ->
        fail "optimality gap reported for a completed search"
    | gap -> (
        match Exact.optimal_cost ~library g with
        | exception Invalid_argument m when contains_substring m "state space" ->
            Ok () (* out of oracle range; feasibility checks above suffice *)
        | oracle ->
            if st.Bb.best_cost +. 1e-9 < oracle then
              fail "fallback cost %g beats the exhaustive optimum %g" st.Bb.best_cost
                oracle
            else (
              match gap with
              | Some gap
                when st.Bb.best_cost > (oracle *. (1. +. (gap /. 100.))) +. 1e-6 ->
                  fail "cost %g outside the reported %g%% gap of the optimum %g"
                    st.Bb.best_cost gap oracle
              | _ -> Ok ()))

(* Cross-layer energy check: one 1-flit packet per flow through the flit
   engine, on the custom architecture and on the mesh baseline ([Syn.mesh]
   on the [Syn.mesh_dims] grid).  The switch and link energy [Stats]
   counts from the engine's activity, per bit, must equal Eq. 1 summed
   over the flows' routes.  Buffer and clock energy have no Eq. 1
   counterpart and stay out of the comparison. *)
let prop_flit_energy library acg =
  let module Flit = Noc_sim.Flitsim in
  let g = Acg.graph acg in
  let d, _ = Bb.decompose ~library acg in
  let rows, cols = Syn.mesh_dims acg in
  let fp =
    Noc_energy.Floorplan.(grid ~cols (uniform_cores ~n:(rows * cols) ~size_mm:2.0))
  in
  let check name arch =
    let config = Noc_sim.Engine.prescribed Noc_sim.Engine.Coarse arch in
    let net = Flit.create ~config arch in
    D.iter_edges (fun src dst -> ignore (Flit.inject net ~src ~dst)) g;
    if Flit.run_until_idle net <> `Idle then fail "%s: the burst did not drain" name
    else
      let bits = float_of_int (Flit.config net).Flit.flit_bits in
      let counted = Noc_sim.Stats.dynamic_energy_pj ~tech:fuzz_tech ~fp net /. bits in
      let eq1 =
        D.fold_edges
          (fun src dst acc ->
            let route = Option.get (Syn.route arch ~src ~dst) in
            acc +. Recost.path_bit_energy_pj ~tech:fuzz_tech ~fp route)
          g 0.
      in
      if Float.abs (counted -. eq1) > 1e-9 *. Float.abs eq1 then
        fail "%s: counted %.12g pJ per bit, Eq. 1 over the routes %.12g" name counted eq1
      else Ok ()
  in
  match check "custom" (Syn.custom acg d) with
  | Error _ as e -> e
  | Ok () -> check "mesh" (Syn.mesh ~rows ~cols acg)

(* A random fault set of 0-3 links and 0-2 switches of [arch]. *)
let random_faults rng arch =
  let topo = arch.Syn.topology in
  List.map
    (fun (u, v) -> Noc_resil.Fault.link u v)
    (Prng.sample rng (Prng.int rng 4) (D.undirected_edges topo))
  @ List.map Noc_resil.Fault.switch (Prng.sample rng (Prng.int rng 3) (D.vertex_list topo))

(* Engine reuse against a fresh engine.  A burst on the custom
   architecture (random preset, 1-2 lanes, fixed or oblivious routing) is
   cut off after 0-15 cycles, with flits in NIs, VOQs and on wires and
   credits in flight.  [Flitsim.reset] onto the architecture a random
   fault set degrades it to, then a one-packet-per-flow burst, must run
   exactly as on an engine created for the degraded architecture, whose
   oblivious walks draw from a copy of the generator taken at the reset:
   same verdict, cycle, deliveries, metrics and link and switch counts. *)
let prop_engine_reset library acg =
  let module Flit = Noc_sim.Flitsim in
  let module Engine = Noc_sim.Engine in
  let g = Acg.graph acg in
  let d, _ = Bb.decompose ~library acg in
  let arch = Syn.custom acg d in
  let rng = Prng.create ~seed:(graph_seed g lxor 0x5e5e7) in
  let config =
    { (Engine.config (Prng.choose rng Engine.all_kinds)) with Flit.num_vcs = Prng.int_in rng 1 2 }
  in
  let walks = if Prng.bool rng then Some (Prng.split rng) else None in
  let policy = function Some w -> Flit.Oblivious w | None -> Flit.Fixed in
  let size_flits = Prng.int_in rng 1 4 in
  let net = Flit.create ~config ~policy:(policy walks) arch in
  D.iter_edges (fun src dst -> ignore (Flit.inject ~size_flits net ~src ~dst)) g;
  for _ = 1 to Prng.int rng 16 do
    Flit.step net
  done;
  let degraded =
    (Noc_resil.Reroute.apply arch ~faults:(random_faults rng arch)).Noc_resil.Reroute.arch
  in
  let fresh = Flit.create ~config ~policy:(policy (Option.map Prng.copy walks)) degraded in
  Flit.reset net degraded;
  let burst e =
    D.iter_edges
      (fun src dst ->
        if Syn.route degraded ~src ~dst <> None then
          ignore (Flit.inject ~size_flits e ~src ~dst))
      g;
    Flit.run_until_idle e
  in
  let verdict = burst net and verdict' = burst fresh in
  if verdict <> verdict' then fail "reset engine and fresh engine reach different verdicts"
  else if Flit.now net <> Flit.now fresh then
    fail "reset engine stops at cycle %d, fresh engine at %d" (Flit.now net) (Flit.now fresh)
  else if Flit.deliveries net <> Flit.deliveries fresh then
    fail "reset engine and fresh engine deliver differently"
  else if Flit.metrics net <> Flit.metrics fresh then
    fail "reset engine and fresh engine count differently"
  else if not (D.Edge_map.equal Int.equal (Flit.link_flits net) (Flit.link_flits fresh)) then
    fail "reset engine and fresh engine load the links differently"
  else if not (D.Vmap.equal Int.equal (Flit.switch_flits net) (Flit.switch_flits fresh)) then
    fail "reset engine and fresh engine move flits through different switches"
  else Ok ()

let props library =
  [
    ("decompose-oracle", prop_decompose library);
    ("bisection-oracle", prop_bisection);
    ("vf2-naive", prop_vf2 library);
    ("cost-recompute", prop_cost library);
    ("deadlock-cdg", prop_deadlock library);
    ("edge-partition", prop_partition library);
    ("routes-valid", prop_routes library);
    ("reroute-avoids-faults", prop_reroute library);
    ("fallback-gap", prop_fallback_gap library);
    ("flit-energy", prop_flit_energy library);
    ("engine-reset", prop_engine_reset library);
  ]

let check ?(library = L.default ()) name acg =
  match List.assoc_opt name (props library) with
  | None -> Error (Printf.sprintf "unknown property %S" name)
  | Some p -> ( try p acg with e -> Error ("exception: " ^ Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let rebuild acg ~vertices ~edges =
  let g = D.of_edges ~vertices edges in
  let volume =
    List.fold_left
      (fun m (u, v) -> D.Edge_map.add (u, v) (Acg.volume acg u v) m)
      D.Edge_map.empty edges
  in
  let bandwidth =
    List.fold_left
      (fun m (u, v) -> D.Edge_map.add (u, v) (Acg.bandwidth acg u v) m)
      D.Edge_map.empty edges
  in
  Acg.make ~graph:g ~volume ~bandwidth ()

let shrink ?(library = L.default ()) ~property acg0 =
  let failing a = Result.is_error (check ~library property a) in
  let steps = ref 0 in
  let cur = ref acg0 in
  let improved = ref true in
  while !improved do
    improved := false;
    let g = Acg.graph !cur in
    let vertices = D.vertex_list g in
    let edges = D.edges g in
    let candidates =
      List.map
        (fun e -> rebuild !cur ~vertices ~edges:(List.filter (( <> ) e) edges))
        edges
      @ List.filter_map
          (fun v ->
            if D.degree g v = 0 && List.length vertices > 1 then
              Some (rebuild !cur ~vertices:(List.filter (( <> ) v) vertices) ~edges)
            else None)
          vertices
    in
    try
      List.iter
        (fun cand ->
          if failing cand then begin
            cur := cand;
            incr steps;
            improved := true;
            raise Exit
          end)
        candidates
    with Exit -> ()
  done;
  (!cur, !steps)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let run ?(observe = Obs.disabled) ?(library = L.default ()) ?properties ~seed
    ~cases () =
  let t0 = Timer.now_mono_s () in
  let names =
    match properties with
    | None -> property_names
    | Some ps ->
        List.iter
          (fun p ->
            if not (List.mem p property_names) then
              invalid_arg (Printf.sprintf "Fuzz.run: unknown property %S" p))
          ps;
        List.filter (fun n -> List.mem n ps) property_names
  in
  let failed : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let failures = ref [] in
  let total_shrink = ref 0 in
  let checks = ref 0 in
  for i = 0 to cases - 1 do
    let case_seed = seed + i in
    let acg = gen_acg ~rng:(Prng.create ~seed:case_seed) in
    List.iter
      (fun name ->
        if not (Hashtbl.mem failed name) then begin
          incr checks;
          match check ~library name acg with
          | Ok () -> ()
          | Error _ ->
              (* one shrunk counterexample per property per run *)
              Hashtbl.replace failed name ();
              let small, steps = shrink ~library ~property:name acg in
              total_shrink := !total_shrink + steps;
              let detail =
                match check ~library name small with
                | Error d -> d
                | Ok () -> "(property passed again after shrinking)"
              in
              failures :=
                { property = name; case_seed; detail; acg = small; shrink_steps = steps }
                :: !failures
        end)
      names
  done;
  let report =
    {
      cases;
      properties = List.length names;
      failures = List.rev !failures;
      shrink_steps = !total_shrink;
      elapsed_s = Timer.now_mono_s () -. t0;
    }
  in
  if Obs.enabled observe then begin
    Obs.Counter.add (Obs.counter observe "fuzz.cases") cases;
    Obs.Counter.add (Obs.counter observe "fuzz.checks") !checks;
    Obs.Counter.add (Obs.counter observe "fuzz.failures") (List.length report.failures);
    Obs.Counter.add (Obs.counter observe "fuzz.shrink_steps") report.shrink_steps
  end;
  report

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let sanitize s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let save_failure ~dir f =
  mkdirs dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.acg" f.property f.case_seed) in
  let oc = open_out path in
  Printf.fprintf oc
    "# nocsynth fuzz counterexample (shrunk %d steps)\n\
     # property: %s\n\
     # seed: %d\n\
     # detail: %s\n\
     %s"
    f.shrink_steps f.property f.case_seed (sanitize f.detail)
    (Acg_io.to_string f.acg);
  close_out oc;
  path

let header_value ~key line =
  let prefix = "# " ^ key ^ ":" in
  let np = String.length prefix in
  if String.length line >= np && String.sub line 0 np = prefix then
    Some (String.trim (String.sub line np (String.length line - np)))
  else None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let replay ?(observe = Obs.disabled) ?(library = L.default ()) ~dir () =
  let files =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".acg")
      |> List.sort compare
    else []
  in
  let failures = ref [] in
  List.iter
    (fun file ->
      let contents = read_file (Filename.concat dir file) in
      let prop =
        String.split_on_char '\n' contents
        |> List.find_map (header_value ~key:"property")
      in
      match Acg_io.parse contents with
      | Error (`Msg m) -> failures := (file, "unparseable corpus entry: " ^ m) :: !failures
      | Ok acg ->
          let names =
            match prop with
            | Some p when List.mem p property_names -> [ p ]
            | _ -> property_names
          in
          List.iter
            (fun name ->
              match check ~library name acg with
              | Ok () -> ()
              | Error d ->
                  failures := (file, Printf.sprintf "%s: %s" name d) :: !failures)
            names)
    files;
  if Obs.enabled observe then begin
    Obs.Counter.add (Obs.counter observe "fuzz.corpus_size") (List.length files);
    Obs.Counter.add (Obs.counter observe "fuzz.corpus_failures") (List.length !failures)
  end;
  (List.length files, List.rev !failures)

let pp_report ppf r =
  Format.fprintf ppf "fuzz: %d cases x %d properties in %.2f s, %d failure%s, %d shrink step%s"
    r.cases r.properties r.elapsed_s (List.length r.failures)
    (if List.length r.failures = 1 then "" else "s")
    r.shrink_steps
    (if r.shrink_steps = 1 then "" else "s");
  List.iter
    (fun f ->
      Format.fprintf ppf "@.  FAIL %s (seed %d, shrunk %d steps): %s@.  %s"
        f.property f.case_seed f.shrink_steps f.detail
        (String.concat " | "
           (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v)
              (D.edges (Acg.graph f.acg)))))
    r.failures
