module D = Noc_graph.Digraph
module C = Noc_graph.Compact
module L = Noc_primitives.Library
module P = Noc_primitives.Primitive
module Timer = Noc_util.Timer
module Obs = Noc_obs.Obs

let log_src = Logs.Src.create "noc.branch_bound" ~doc:"branch-and-bound search"

module Log = (val Logs.src_log log_src : Logs.LOG)

type neutral_strategy = Branch | Greedy

module Budget = struct
  type t = { timeout_s : float option; max_nodes : int; domains : int }

  let default = { timeout_s = None; max_nodes = 200_000; domains = 1 }
  let with_timeout_s timeout_s t = { t with timeout_s }
  let with_max_nodes max_nodes t = { t with max_nodes }
  let with_domains domains t = { t with domains }

  let starved t = match t.timeout_s with Some s -> s <= 0.0 | None -> false

  let clamp_service ?max_timeout_s t =
    match (t.timeout_s, max_timeout_s) with
    | None, cap -> { t with timeout_s = cap }
    | Some _, None -> t
    | Some s, Some cap -> { t with timeout_s = Some (Float.min s cap) }
end

type options = {
  cost : Cost.t;
  constraints : Constraints.t option;
  max_matches_per_step : int;
  neutrals : neutral_strategy;
  fallback : bool;
}

let default_options =
  {
    cost = Cost.Edge_count;
    constraints = None;
    max_matches_per_step = 1;
    neutrals = Greedy;
    fallback = false;
  }

let energy_options ~tech ~fp =
  {
    default_options with
    cost = Cost.Energy { tech; fp };
    constraints = Some (Constraints.of_technology tech);
  }

(* ------------------------------------------------------------------ *)
(* Budget resolution: the single place where the domain count is clamped
   to what the machine can run. *)

let domain_cap () =
  let recommended = max 1 (Domain.recommended_domain_count ()) in
  match Sys.getenv_opt "NOCSYNTH_MAX_DOMAINS" with
  | None -> recommended
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          Log.warn (fun k ->
              k "ignoring invalid NOCSYNTH_MAX_DOMAINS=%S (want an int >= 1)" s);
          recommended)

let resolve_budget ?(budget = Budget.default) () =
  let b = budget in
  let asked = max 1 b.Budget.domains in
  let cap = domain_cap () in
  let granted = min asked cap in
  if granted <> asked then
    Log.warn (fun k ->
        k "clamping Budget.domains %d -> %d (recommended_domain_count %d)"
          asked granted cap);
  { b with Budget.domains = granted }

type prim_stats = { attempts : int; hits : int }

type vf2_stats = { probes : int; backtracks : int }

type stats = {
  nodes : int;
  matches_tried : int;
  leaves : int;
  pruned : int;
  incumbents : int;
  tasks : int;
  steals : int;
  elapsed_s : float;
  timed_out : bool;
  best_cost : float;
  constraints_met : bool;
  fallback_used : bool;
  gap_pct : float option;
  per_primitive : (string * prim_stats) list;
  vf2 : vf2_stats;
}

let stats_to_json st =
  Obs.Json.Obj
    [
      ("nodes", Obs.Json.Int st.nodes);
      ("matches_tried", Obs.Json.Int st.matches_tried);
      ("leaves", Obs.Json.Int st.leaves);
      ("pruned", Obs.Json.Int st.pruned);
      ("incumbents", Obs.Json.Int st.incumbents);
      ("tasks", Obs.Json.Int st.tasks);
      ("steals", Obs.Json.Int st.steals);
      ("elapsed_s", Obs.Json.Float st.elapsed_s);
      ("timed_out", Obs.Json.Bool st.timed_out);
      ("best_cost", Obs.Json.Float st.best_cost);
      ("constraints_met", Obs.Json.Bool st.constraints_met);
      ("fallback_used", Obs.Json.Bool st.fallback_used);
      ( "gap_pct",
        match st.gap_pct with
        | Some g -> Obs.Json.Float g
        | None -> Obs.Json.Null );
      ( "vf2",
        Obs.Json.Obj
          [
            ("probes", Obs.Json.Int st.vf2.probes);
            ("backtracks", Obs.Json.Int st.vf2.backtracks);
          ] );
      ( "per_primitive",
        Obs.Json.Obj
          (List.map
             (fun (name, p) ->
               ( name,
                 Obs.Json.Obj
                   [
                     ("attempts", Obs.Json.Int p.attempts);
                     ("hits", Obs.Json.Int p.hits);
                   ] ))
             st.per_primitive) );
    ]

(* Per-edge cost contributions of the root ACG, so the remainder cost and
   the admissible lower bound can be maintained incrementally under edge
   deletion (subtract the covered edges) instead of re-folded per node.
   Only materialized for the [Energy] cost — [Edge_count]'s view folds are
   already O(1) off [num_edges]. *)
type inc_tables = {
  rem_of : (int * int, float) Hashtbl.t;
  lb_of : (int * int, float) Hashtbl.t;
}

(* Everything the search shares across workers: immutable configuration,
   the frozen ACG, plus the cross-worker atomics — the node budget and the
   incumbent cost used for global pruning. *)
type env = {
  opts : options;
  budget : Budget.t;
  acg : Acg.t;
  library : L.t;
  branchable : L.entry list;
  compiled : Noc_graph.Multi_pattern.t;
  frozen : (int, C.t) Hashtbl.t;  (** entry id -> frozen representation graph *)
  min_ratio : float;
  inc : inc_tables option;
  mono_deadline : Timer.Deadline.t;
  nodes : int Atomic.t;
  shared_best : float Atomic.t;
  obs : Obs.t;
  instr : Noc_graph.Vf2.Instr.t option;  (** present iff [obs] is enabled *)
  prim_slots : int;  (** 1 + max library entry id, for per-primitive arrays *)
}

(* A node's greedy leaf completion (see [greedy_pass]): the neutral
   matchings it takes, in order, each with its cost, and the view they
   leave. *)
type pass = {
  steps : (Matching.t * float) list;
  rest : C.view;
  truncated : bool;  (** cut short by the deadline *)
}

(* An open subproblem, self-contained so any worker can run it: the
   remaining graph, the partial decomposition, its exact cost, the
   incrementally-maintained remainder/lower-bound values, the canonical
   [min_id] floor, the node's path (child indices from the root) which
   makes the final reduction independent of steal order, and the leaf pass
   it inherits from its parent, if any. *)
type task = {
  t_view : C.view;
  t_matchings : Matching.t list;  (** reversed *)
  t_cost : float;
  t_min_id : int;
  t_rem_c : float;
  t_lb_c : float;
  t_path_rev : int list;
  t_depth : int;
  t_pass : pass option;
}

(* Worker-local search state.  The sequential driver has exactly one of
   these, reproducing the seed engine's single global incumbent; the
   work-stealing driver gives each worker one, resetting the incumbent
   cell ([best]/[best_decomp]/[best_path]) at every task so a task's
   result is a pure function of the task, not of scheduling. *)
type wctx = {
  env : env;
  mutable best : float;
  mutable best_decomp : Decomposition.t option;
  mutable best_path : int list;  (** reversed leaf path of the incumbent *)
  mutable spawn : (task -> unit) option;  (** work-stealing push, when parallel *)
  mutable matches_tried : int;
  mutable leaves : int;
  mutable pruned : int;
  mutable incumbents : int;
  mutable timed_out : bool;
  attempts : int array;  (** per library entry id: candidate enumerations *)
  hits : int array;  (** per library entry id: matchings instantiated *)
}

let mk_ctx env =
  {
    env;
    best = infinity;
    best_decomp = None;
    best_path = [];
    spawn = None;
    matches_tried = 0;
    leaves = 0;
    pruned = 0;
    incumbents = 0;
    timed_out = false;
    attempts = Array.make env.prim_slots 0;
    hits = Array.make env.prim_slots 0;
  }

let rec cas_min a x =
  let cur = Atomic.get a in
  if x < cur && not (Atomic.compare_and_set a cur x) then cas_min a x

let budget_exhausted ctx =
  if Atomic.get ctx.env.nodes >= ctx.env.budget.Budget.max_nodes then begin
    ctx.timed_out <- true;
    true
  end
  else if Timer.Deadline.expired ctx.env.mono_deadline then begin
    ctx.timed_out <- true;
    true
  end
  else false

let int_set_of_list ids =
  let tbl = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace tbl id ()) ids;
  tbl

(* Child remainder cost and lower bound after deleting [covered] from a
   node's view: incrementally for [Energy] (subtract the per-edge
   contributions), directly for [Edge_count] (both folds are O(1)). *)
let child_bounds env ~rem_c ~lb_c covered view' =
  match env.inc with
  | None ->
      ( Cost.remainder_cost_view env.opts.cost env.acg view',
        Cost.lower_bound_view env.opts.cost env.acg ~min_link_ratio:env.min_ratio
          view' )
  | Some inc ->
      List.fold_left
        (fun (r, l) e ->
          let dr = try Hashtbl.find inc.rem_of e with Not_found -> 0.0 in
          let dl = try Hashtbl.find inc.lb_of e with Not_found -> 0.0 in
          (r -. dr, l -. dl))
        (rem_c, lb_c) covered

(* Enumerate up to [max_matches_per_step] candidate matchings of [entry] in
   [remaining], one representative per covered-edge set: the remaining
   graph after subtraction only depends on that set.  Under [Edge_count]
   every representative costs the same, so the first one found is kept.
   Under [Energy] the vertex roles decide which flows ride multi-hop
   routes, so the cheapest representative per set is kept, out of at most
   16 enumerated matches per requested set (at least 32; the cap
   saturates instead of wrapping). *)
let candidate_matchings ~env entry remaining =
  let opts = env.opts in
  let deadline = env.mono_deadline in
  let instr = env.instr in
  let acg = env.acg in
  let pattern = Hashtbl.find env.frozen entry.L.id in
  let cap = opts.max_matches_per_step in
  match opts.cost with
  | Cost.Edge_count ->
      Noc_graph.Vf2.find_distinct_images_view ~deadline ?instr ~max_matches:cap
        ~pattern ~target:remaining ()
      |> List.map (fun m ->
             let matching = Matching.of_vf2 entry m in
             (matching, Matching.cost opts.cost acg matching))
  | Cost.Energy _ ->
      let groups = Hashtbl.create 16 in
      let order = ref [] in
      let hard_cap = if cap > max_int / 16 then max_int else max 32 (cap * 16) in
      let count = ref 0 in
      let _ =
        Noc_graph.Vf2.iter_view ~deadline ?instr ~pattern ~target:remaining (fun m ->
            let matching = Matching.of_vf2 entry m in
            let c = Matching.cost opts.cost acg matching in
            let key = matching.Matching.covered in
            (match Hashtbl.find_opt groups key with
            | None ->
                Hashtbl.replace groups key (matching, c);
                order := key :: !order
            | Some (_, best_c) ->
                if c < best_c then Hashtbl.replace groups key (matching, c));
            incr count;
            if !count >= hard_cap then `Stop else `Continue)
      in
      let keys = List.rev !order in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | k :: rest -> Hashtbl.find groups k :: take (n - 1) rest
      in
      take cap keys

(* A library entry is a "saver" when its implementation uses strictly fewer
   physical links than the number of ACG edges it covers (gossip graphs);
   every other primitive realizes its pattern at exactly dedicated-link
   cost, so it can never make a decomposition cheaper - under [Greedy] such
   neutral primitives are excluded from branching and recovered by a
   deterministic greedy pass at each leaf, which reproduces the paper's
   listings (loops, paths, broadcasts still appear in the output) while
   keeping the search tree driven by the primitives that matter. *)
let is_saver entry =
  let p = entry.L.prim in
  float_of_int (P.impl_link_count p) < float_of_int (P.repr_edge_count p) -. 1e-9

(* Deterministic completion: repeatedly take the first matching, in library
   order, whose cost does not exceed realizing its covered edges as
   dedicated links, and subtract it.  The result is a [pass]: the
   matchings taken, in order, each with its cost, and the view they leave.
   A complete pass is a pure function of the view it starts from, so the
   pass of [view - covered(first step)] is exactly the rest of the pass of
   [view]; [explore] hands that suffix to the child whose branch covers
   those edges instead of running it again.

   Within one pass an entry with no match stays dead: a monomorphism into
   [G - E] is also one into [G], and the view only loses edges.  The
   Messmer-Bunke style invariant screen [compiled] (Section 5.1's
   decision-tree suggestion) is monotone the same way, so the entries it
   rejects on the pass's first view start dead.  Every other entry runs
   VF2 again on each iteration.

   At large core counts a single pass can dominate wall time, so it
   honours the search's monotonic deadline: once expired it stops
   re-attaching and leaves whatever remains as dedicated links.  A VF2
   call cut off by the deadline proves nothing about its entry, so it ends
   the pass too.  A truncated pass still produces a valid (just costlier)
   completion, but the caller must downgrade the result to anytime
   semantics. *)
let greedy_pass ~env ~alive view =
  let opts = env.opts in
  let entries = Array.of_list env.library in
  let dead = Array.map (fun e -> not (alive e.L.id)) entries in
  let rec scan rem i =
    if i = Array.length entries then `Done
    else if dead.(i) then scan rem (i + 1)
    else
      let entry = entries.(i) in
      match
        Noc_graph.Vf2.find_first_view ~deadline:env.mono_deadline ?instr:env.instr
          ~pattern:(Hashtbl.find env.frozen entry.L.id) ~target:rem ()
      with
      | None when Timer.Deadline.expired env.mono_deadline -> `Cut
      | None ->
          dead.(i) <- true;
          scan rem (i + 1)
      | Some m ->
          let matching = Matching.of_vf2 entry m in
          let c = Matching.cost opts.cost env.acg matching in
          let direct =
            Cost.remainder_cost opts.cost env.acg (D.of_edges matching.Matching.covered)
          in
          if c <= direct +. 1e-9 then `Take (matching, c) else scan rem (i + 1)
  in
  let rec go rem steps_rev =
    let finish truncated = { steps = List.rev steps_rev; rest = rem; truncated } in
    if Timer.Deadline.expired env.mono_deadline then finish true
    else
      match scan rem 0 with
      | `Take ((matching, _) as step) ->
          go (C.delete_edges rem matching.Matching.covered) (step :: steps_rev)
      | `Done -> finish false
      | `Cut -> finish true
  in
  Obs.span env.obs ~cat:"search" "greedy-pass" (fun () -> go view [])

(* The cost of a pass's matchings, summed from its own first step so an
   inherited suffix sums exactly as the child's own pass would. *)
let steps_cost pass = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 pass.steps

(* The completion a node's leaf uses: the greedy pass under [Greedy],
   nothing under [Branch]. *)
let leaf_pass ~env ~alive view =
  match env.opts.neutrals with
  | Branch -> { steps = []; rest = view; truncated = false }
  | Greedy -> greedy_pass ~env ~alive view

(* The part of [pass] a child inherits when its branch covers exactly the
   edges of the pass's first step: the child's view is then the view that
   step leaves.  Covered-edge lists are sorted, so list equality is set
   equality. *)
let pass_suffix pass covered =
  match pass.steps with
  | (first, _) :: steps when first.Matching.covered = covered -> Some { pass with steps }
  | _ -> None

let accept ctx matchings_rev rest_view total ~path_rev =
  let d =
    {
      Decomposition.matchings = List.rev matchings_rev;
      remainder = C.to_digraph rest_view;
    }
  in
  let ok =
    match ctx.env.opts.constraints with
    | None -> true
    | Some c ->
        Constraints.satisfied c ctx.env.acg (Synthesis.custom ctx.env.acg d)
  in
  if ok then begin
    ctx.best_decomp <- Some d;
    ctx.best <- total;
    ctx.best_path <- path_rev;
    ctx.incumbents <- ctx.incumbents + 1;
    cas_min ctx.env.shared_best total;
    (* the incumbent timeline: one instant event per accepted improvement *)
    if Obs.enabled ctx.env.obs then
      Obs.instant ctx.env.obs "incumbent"
        ~args:
          [
            ("cost", Obs.Json.Float total);
            ("nodes", Obs.Json.Int (Atomic.get ctx.env.nodes));
            ("matchings", Obs.Json.Int (List.length matchings_rev));
          ]
  end

(* The leaf of a node: its pass's neutral matchings, with the rest charged
   as dedicated links.  Leaf totals are always recomputed exactly (no
   incremental float accumulation), so reported costs are independent of
   the path taken to reach the leaf and of which node computed the
   pass. *)
let eval_leaf ctx pass matchings_rev cost_so_far ~path_rev =
  let env = ctx.env in
  ctx.leaves <- ctx.leaves + 1;
  (* a cut-short greedy pass means this leaf's total is budget-dependent:
     report the whole search as exhausted so callers don't take the
     determinism guarantee on it *)
  if pass.truncated then ctx.timed_out <- true;
  let total =
    cost_so_far +. steps_cost pass +. Cost.remainder_cost_view env.opts.cost env.acg pass.rest
  in
  if total < ctx.best then
    accept ctx (List.rev_append (List.map fst pass.steps) matchings_rev) pass.rest total
      ~path_rev

(* In the work-stealing search, branches above this depth become
   stealable tasks; below it a worker recurses inline.  Depth-only
   (deterministic) by design — see [run_work_stealing]. *)
let spawn_depth = 3

(* [min_id]: only primitives with id >= min_id may be matched below this
   node.  Decompositions are multisets of matchings, so exploring them in
   non-decreasing library order visits each multiset once instead of once
   per permutation.

   A branch is explored when its bound beats both the task-local best
   (strictly — preserving the seed engine's first-of-equal-cost tie-break)
   and the cross-worker incumbent (non-strictly, so an equal-cost subtree
   in an earlier canonical branch is never lost to a later worker's
   publication).  In the sequential driver the task-local best IS the
   global best, and the rule collapses to the seed engine's [bound < best].

   [path_rev] assigns every node its sequence of child indices from the
   root — candidate enumeration is deterministic, so the index of a branch
   is too, and a node's own leaf gets index [#children], ordering it after
   its subtrees exactly like the depth-first engine visits it.  The final
   reduction minimizes (cost, path), which makes the reported result
   independent of which worker ran which task. *)
let rec explore ctx remaining matchings_rev cost_so_far min_id ~rem_c ~lb_c
    ~path_rev ~depth ~pass =
  let env = ctx.env in
  ignore (Atomic.fetch_and_add env.nodes 1);
  if budget_exhausted ctx then ()
  else begin
    let alive =
      int_set_of_list (Noc_graph.Multi_pattern.survivors_view env.compiled remaining)
    in
    (* the leaf pass is computed on entry, before the children, so the
       child that branches on its first step can take the rest of it *)
    let pass =
      match pass with
      | Some p -> p
      | None -> leaf_pass ~env ~alive:(Hashtbl.mem alive) remaining
    in
    let child_i = ref 0 in
    List.iter
      (fun entry ->
        if
          entry.L.id >= min_id
          && Hashtbl.mem alive entry.L.id
          && not (budget_exhausted ctx)
        then begin
          let cands = candidate_matchings ~env entry remaining in
          ctx.attempts.(entry.L.id) <- ctx.attempts.(entry.L.id) + 1;
          ctx.hits.(entry.L.id) <- ctx.hits.(entry.L.id) + List.length cands;
          List.iter
            (fun (matching, c) ->
              ctx.matches_tried <- ctx.matches_tried + 1;
              let i = !child_i in
              incr child_i;
              if not (budget_exhausted ctx) then begin
                let new_cost = cost_so_far +. c in
                let view' = C.delete_edges remaining matching.Matching.covered in
                let rem_c', lb_c' =
                  child_bounds env ~rem_c ~lb_c matching.Matching.covered view'
                in
                let bound = new_cost +. lb_c' in
                if bound < ctx.best && bound <= Atomic.get env.shared_best then begin
                  let pass' = pass_suffix pass matching.Matching.covered in
                  match ctx.spawn with
                  | Some push when depth < spawn_depth ->
                      push
                        {
                          t_view = view';
                          t_matchings = matching :: matchings_rev;
                          t_cost = new_cost;
                          t_min_id = entry.L.id;
                          t_rem_c = rem_c';
                          t_lb_c = lb_c';
                          t_path_rev = i :: path_rev;
                          t_depth = depth + 1;
                          t_pass = pass';
                        }
                  | Some _ | None ->
                      explore ctx view' (matching :: matchings_rev) new_cost
                        entry.L.id ~rem_c:rem_c' ~lb_c:lb_c'
                        ~path_rev:(i :: path_rev) ~depth:(depth + 1) ~pass:pass'
                end
                else ctx.pruned <- ctx.pruned + 1
              end)
            cands
        end)
      env.branchable;
    (* every node is also a leaf: stopping early (leaving a matchable
       remainder) generalizes the paper's leaves-only rule and lets the
       search reject energy-losing matchings.  Neutral primitives are
       re-attached greedily so loops, paths and broadcasts still show up
       in the listing. *)
    eval_leaf ctx pass matchings_rev cost_so_far ~path_rev:(!child_i :: path_rev)
  end

(* ------------------------------------------------------------------ *)
(* Work-stealing search.

   The root is one task on the {!Ws.run} pool.  [explore] turns a branch
   into a new task instead of recursing while the node is shallower than
   [spawn_depth] — a deterministic, depth-only policy, so the set of tasks
   (and hence the searched tree shape) does not depend on queue occupancy
   or timing.  Each worker keeps its own context and result list; the
   incumbent cell is reset at every task, so a task's result is a pure
   function of the task, not of scheduling. *)

let run_work_stealing env root ~domains =
  let ctxs = Array.init domains (fun _ -> mk_ctx env) in
  let results = Array.make domains [] in
  let ws =
    Ws.run ~observe:env.obs ~domains [| root |] (fun ~slot ~spawn t ->
        let ctx = ctxs.(slot) in
        ctx.spawn <- Some spawn;
        ctx.best <- infinity;
        ctx.best_decomp <- None;
        ctx.best_path <- [];
        explore ctx t.t_view t.t_matchings t.t_cost t.t_min_id ~rem_c:t.t_rem_c
          ~lb_c:t.t_lb_c ~path_rev:t.t_path_rev ~depth:t.t_depth ~pass:t.t_pass;
        Option.iter
          (fun d -> results.(slot) <- (ctx.best, List.rev ctx.best_path, d) :: results.(slot))
          ctx.best_decomp)
  in
  (* per-domain utilization for the observer *)
  if Obs.enabled env.obs then begin
    Obs.Gauge.set (Obs.gauge env.obs "search.domains") (float_of_int domains);
    for k = 0 to domains - 1 do
      Obs.Gauge.set
        (Obs.gauge env.obs (Printf.sprintf "search.domain.%d.busy_s" k))
        ws.Ws.busy_s.(k);
      Obs.Gauge.set
        (Obs.gauge env.obs (Printf.sprintf "search.domain.%d.idle_s" k))
        ws.Ws.idle_s.(k)
    done
  end;
  (List.concat (Array.to_list results), Array.to_list ctxs, ws.Ws.tasks, ws.Ws.steals)

(* The search: sequential when it has a single domain (the exact seed
   engine — one incumbent cell, no task machinery), work-stealing
   otherwise.  Returns the recorded incumbents, the worker contexts, and
   the task and steal counts. *)
let run_search env root_view ~domains =
  let rem0 = Cost.remainder_cost_view env.opts.cost env.acg root_view in
  let lb0 =
    Cost.lower_bound_view env.opts.cost env.acg ~min_link_ratio:env.min_ratio
      root_view
  in
  if domains <= 1 then begin
    let ctx = mk_ctx env in
    explore ctx root_view [] 0.0 0 ~rem_c:rem0 ~lb_c:lb0 ~path_rev:[] ~depth:0
      ~pass:None;
    let res =
      match ctx.best_decomp with
      | Some d -> [ (ctx.best, List.rev ctx.best_path, d) ]
      | None -> []
    in
    (res, [ ctx ], 1, 0)
  end
  else
    run_work_stealing env ~domains
      {
        t_view = root_view;
        t_matchings = [];
        t_cost = 0.0;
        t_min_id = 0;
        t_rem_c = rem0;
        t_lb_c = lb0;
        t_path_rev = [];
        t_depth = 0;
        t_pass = None;
      }

(* ------------------------------------------------------------------ *)

(* Lexicographic order on leaf paths = the order the sequential
   depth-first engine visits leaves. *)
let rec path_lt p q =
  match (p, q) with
  | [], [] -> false
  | [], _ :: _ -> true
  | _ :: _, [] -> false
  | a :: p', b :: q' -> a < b || (a = b && path_lt p' q')

(* Deterministic reduction over every recorded incumbent: minimum cost,
   ties to the depth-first-smallest leaf path.  Equal to the sequential
   engine's pick whenever the search ran to completion. *)
let reduce_results results =
  List.fold_left
    (fun best ((c, p, _) as cand) ->
      match best with
      | None -> Some cand
      | Some (bc, bp, _) -> if c < bc || (c = bc && path_lt p bp) then Some cand else best)
    None results

(* Anytime fallback: the deterministic greedy completion from the root,
   checked against the constraints, published as the initial incumbent.
   It bounds the search from the first node, and if the budget dies before
   the search finds anything better the caller still gets a feasible
   decomposition.  Ranked after every search incumbent, so it only wins
   when the search found nothing at least as good. *)
let fallback_seed env root_view =
  (* the seed honours the deadline too: truncation only enlarges the
     remainder (realized as dedicated links), so the result stays a valid
     feasible decomposition even when the budget is gone before one full
     greedy pass fits *)
  let alive =
    int_set_of_list (Noc_graph.Multi_pattern.survivors_view env.compiled root_view)
  in
  let pass = greedy_pass ~env ~alive:(Hashtbl.mem alive) root_view in
  let total = steps_cost pass +. Cost.remainder_cost_view env.opts.cost env.acg pass.rest in
  let d =
    {
      Decomposition.matchings = List.map fst pass.steps;
      remainder = C.to_digraph pass.rest;
    }
  in
  let ok =
    match env.opts.constraints with
    | None -> true
    | Some c ->
        Constraints.satisfied c env.acg (Synthesis.custom env.acg d)
  in
  if ok then begin
    cas_min env.shared_best total;
    if Obs.enabled env.obs then
      Obs.instant env.obs "fallback-seed" ~args:[ ("cost", Obs.Json.Float total) ];
    Some (total, d)
  end
  else None

let decompose ?(options = default_options) ?budget ?(observe = Obs.disabled) ~library acg =
  let opts = options in
  if opts.max_matches_per_step < 1 then
    invalid_arg "Branch_bound.decompose: max_matches_per_step must be >= 1";
  let budget = resolve_budget ?budget () in
  let t0 = Timer.now_mono_s () in
  let mono_deadline = Timer.Deadline.after_opt budget.Budget.timeout_s in

  let min_ratio = Cost.min_link_ratio_of_library library in
  let branchable =
    match opts.neutrals with
    | Branch -> library
    | Greedy -> List.filter is_saver library
  in
  let compiled, frozen =
    Obs.span observe ~cat:"setup" "compile-library" (fun () ->
        let compiled =
          Noc_graph.Multi_pattern.compile
            (List.map (fun e -> (e.L.id, e.L.prim.P.repr)) library)
        in
        let frozen = Hashtbl.create 16 in
        List.iter
          (fun e ->
            if not (Hashtbl.mem frozen e.L.id) then
              Hashtbl.replace frozen e.L.id (C.freeze e.L.prim.P.repr))
          library;
        (compiled, frozen))
  in
  let instr =
    if Obs.enabled observe then Some (Noc_graph.Vf2.Instr.create ()) else None
  in
  let inc =
    match opts.cost with
    | Cost.Edge_count -> None
    | Cost.Energy _ ->
        let graph = Acg.graph acg in
        let sz = max 16 (2 * D.num_edges graph) in
        let rem_of = Hashtbl.create sz and lb_of = Hashtbl.create sz in
        D.iter_edges
          (fun u v ->
            Hashtbl.replace rem_of (u, v)
              (Cost.edge_remainder_cost opts.cost acg u v);
            Hashtbl.replace lb_of (u, v)
              (Cost.edge_lower_bound opts.cost acg ~min_link_ratio:min_ratio u v))
          graph;
        Some { rem_of; lb_of }
  in
  let env =
    {
      opts;
      budget;
      acg;
      library;
      branchable;
      compiled;
      frozen;
      min_ratio;
      inc;
      mono_deadline;
      nodes = Atomic.make 0;
      shared_best = Atomic.make infinity;
      obs = observe;
      instr;
      prim_slots = 1 + List.fold_left (fun m e -> max m e.L.id) 0 library;
    }
  in
  let root_view = C.view (C.freeze (Acg.graph acg)) in
  let lb0 =
    Cost.lower_bound_view opts.cost acg ~min_link_ratio:min_ratio root_view
  in
  let seed =
    if opts.fallback then
      Obs.span observe ~cat:"search" "greedy-fallback-seed" (fun () ->
          fallback_seed env root_view)
    else None
  in
  let search_results, workers, tasks, steals =
    Obs.span observe ~cat:"search" "branch-and-bound"
      ~args:[ ("domains", Obs.Json.Int budget.Budget.domains) ]
      (fun () -> run_search env root_view ~domains:budget.Budget.domains)
  in
  let elapsed = Timer.now_mono_s () -. t0 in
  let decomp, best_cost, met, fallback_used =
    match (reduce_results search_results, seed) with
    | Some (c, _, d), Some (sc, _) when c <= sc -> (d, c, true, false)
    | _, Some (sc, sd) -> (sd, sc, true, true)
    | Some (c, _, d), None -> (d, c, true, false)
    | None, None ->
        (* no complete decomposition was accepted (constraints rejected
           them all, or the budget ran out before the first leaf): fall
           back to the all-remainder decomposition so the caller still gets
           a valid covering, and report whether it satisfies the
           constraints *)
        let d = { Decomposition.matchings = []; remainder = Acg.graph acg } in
        let met =
          match opts.constraints with
          | None -> true
          | Some c ->
              Constraints.satisfied c acg (Synthesis.custom acg d)
        in
        (d, Cost.remainder_cost opts.cost acg (Acg.graph acg), met, false)
  in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 workers in
  let timed_out = List.exists (fun w -> w.timed_out) workers in
  let gap_pct =
    if timed_out && lb0 > 1e-12 then
      Some (Float.max 0.0 (100.0 *. (best_cost -. lb0) /. lb0))
    else None
  in
  let seen = Hashtbl.create 8 in
  let per_primitive =
    List.filter_map
      (fun e ->
        if Hashtbl.mem seen e.L.id then None
        else begin
          Hashtbl.replace seen e.L.id ();
          Some
            ( e.L.prim.P.name,
              {
                attempts = sum (fun w -> w.attempts.(e.L.id));
                hits = sum (fun w -> w.hits.(e.L.id));
              } )
        end)
      library
  in
  let stats =
    {
      nodes = Atomic.get env.nodes;
      matches_tried = sum (fun w -> w.matches_tried);
      leaves = sum (fun w -> w.leaves);
      pruned = sum (fun w -> w.pruned);
      incumbents = sum (fun w -> w.incumbents);
      tasks;
      steals;
      elapsed_s = elapsed;
      timed_out;
      best_cost;
      constraints_met = met;
      fallback_used;
      gap_pct;
      per_primitive;
      vf2 =
        (match instr with
        | Some i ->
            {
              probes = Noc_graph.Vf2.Instr.probes i;
              backtracks = Noc_graph.Vf2.Instr.backtracks i;
            }
        | None -> { probes = 0; backtracks = 0 });
    }
  in
  (* mirror the final search counters into the observer so traces and
     metric dumps carry them without a second aggregation pass *)
  if Obs.enabled observe then begin
    let put name v = Obs.Counter.add (Obs.counter observe name) v in
    put "search.nodes" stats.nodes;
    put "search.matches_tried" stats.matches_tried;
    put "search.leaves" stats.leaves;
    put "search.pruned" stats.pruned;
    put "search.incumbents" stats.incumbents;
    put "search.tasks" stats.tasks;
    put "search.steals" stats.steals;
    put "vf2.probes" stats.vf2.probes;
    put "vf2.backtracks" stats.vf2.backtracks;
    List.iter
      (fun (name, (p : prim_stats)) ->
        put (Printf.sprintf "match.%s.attempts" name) p.attempts;
        put (Printf.sprintf "match.%s.hits" name) p.hits)
      stats.per_primitive;
    Obs.Gauge.set (Obs.gauge observe "search.best_cost") stats.best_cost
  end;
  (decomp, stats)
