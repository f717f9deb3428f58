module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Cons = Noc_core.Constraints
module L = Noc_primitives.Library
module J = Noc_obs.Obs.Json

module Request = struct
  type t = {
    id : string;
    acg : Acg.t;
    library : string;
    budget : Bb.Budget.t;
    constraints : Cons.t option;
  }

  let make ?(id = "") ?(library = "default") ?(budget = Bb.Budget.default)
      ?constraints acg =
    { id; acg; library; budget; constraints }

  let library_of_name = function
    | "default" -> Some (L.default ())
    | "extended" -> Some (L.extended ())
    | "minimal" -> Some (L.minimal ())
    | _ -> None

  (* [%h] hex floats are exact, so two budgets/constraints collide exactly
     when they are the same values *)
  let cache_key_of_labeling t labeling =
    let timeout =
      match t.budget.Bb.Budget.timeout_s with
      | None -> "none"
      | Some s -> Printf.sprintf "%h" s
    in
    let cons =
      match t.constraints with
      | None -> "none"
      | Some c ->
          Printf.sprintf "%h/%d" c.Cons.link_bandwidth c.Cons.max_bisection_links
    in
    Printf.sprintf "%s|lib=%s|t=%s|n=%d|c=%s" (Acg.hash_of_labeling labeling)
      t.library timeout t.budget.Bb.Budget.max_nodes cons

  let cache_key t = cache_key_of_labeling t (Acg.canonical_labeling t.acg)
end

module Error = struct
  type t =
    | Bad_request of string
    | Over_budget of string
    | Shed of string
    | Internal of string

  let class_name = function
    | Bad_request _ -> "bad_request"
    | Over_budget _ -> "over_budget"
    | Shed _ -> "shed"
    | Internal _ -> "internal"

  let message = function
    | Bad_request m | Over_budget m | Shed m | Internal m -> m

  let counter_name e = "serve.errors." ^ class_name e

  let to_json e =
    J.Obj [ ("class", J.Str (class_name e)); ("message", J.Str (message e)) ]

  let to_string e = J.to_string (to_json e)

  let of_json j =
    match (J.member "class" j, J.member "message" j) with
    | Some (J.Str c), Some (J.Str m) -> (
        match c with
        | "bad_request" -> Some (Bad_request m)
        | "over_budget" -> Some (Over_budget m)
        | "shed" -> Some (Shed m)
        | "internal" -> Some (Internal m)
        | _ -> None)
    | _ -> None
end

module Response = struct
  type backend_score = {
    backend : string;
    links : int;
    avg_hops : float;
    max_hops : int;
    energy_pj : float;
  }

  type provenance = {
    library : string;
    budget_timeout_s : float option;
    budget_max_nodes : int;
    canonical : bool;
  }

  type t = {
    key : string;
    cores : int;
    flows : int;
    cost : float;
    timed_out : bool;
    degraded : bool;
    gap_pct : float option;
    constraints_met : bool;
    topology : (int * int) list;
    routes : ((int * int) * int list) list;
    backends : backend_score list;
    provenance : provenance;
  }

  let backend_to_json b =
    J.Obj
      [
        ("backend", J.Str b.backend);
        ("links", J.Int b.links);
        ("avg_hops", J.Float b.avg_hops);
        ("max_hops", J.Int b.max_hops);
        ("energy_pj", J.Float b.energy_pj);
      ]

  let to_json t =
    J.Obj
      [
        ("key", J.Str t.key);
        ("cores", J.Int t.cores);
        ("flows", J.Int t.flows);
        ("cost", J.Float t.cost);
        ("timed_out", J.Bool t.timed_out);
        ("degraded", J.Bool t.degraded);
        ("gap_pct", match t.gap_pct with None -> J.Null | Some g -> J.Float g);
        ("constraints_met", J.Bool t.constraints_met);
        ( "topology",
          J.List (List.map (fun (u, v) -> J.List [ J.Int u; J.Int v ]) t.topology) );
        ( "routes",
          J.List
            (List.map
               (fun ((s, d), path) ->
                 J.Obj
                   [
                     ("src", J.Int s);
                     ("dst", J.Int d);
                     ("path", J.List (List.map (fun v -> J.Int v) path));
                   ])
               t.routes) );
        ("backends", J.List (List.map backend_to_json t.backends));
        ( "provenance",
          J.Obj
            [
              ("library", J.Str t.provenance.library);
              ( "budget_timeout_s",
                match t.provenance.budget_timeout_s with
                | None -> J.Null
                | Some s -> J.Float s );
              ("budget_max_nodes", J.Int t.provenance.budget_max_nodes);
              ("canonical", J.Bool t.provenance.canonical);
            ] );
      ]

  let to_string t = J.to_string (to_json t)

  (* The inverse of [to_json], used by the cache snapshot restore to
     rebuild typed values from persisted bytes.  Total: every malformed
     shape comes back as [Error], never an exception. *)
  let of_json j =
    let ( let* ) = Option.bind in
    let str = function J.Str s -> Some s | _ -> None in
    let int = function J.Int i -> Some i | _ -> None in
    let float = function J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None in
    let bool = function J.Bool b -> Some b | _ -> None in
    let field k conv = Option.bind (J.member k j) conv in
    let list conv = function
      | J.List xs ->
          let rec go acc = function
            | [] -> Some (List.rev acc)
            | x :: rest -> ( match conv x with Some v -> go (v :: acc) rest | None -> None)
          in
          go [] xs
      | _ -> None
    in
    let backend_of_json b =
      let f k conv = Option.bind (J.member k b) conv in
      let* backend = f "backend" str in
      let* links = f "links" int in
      let* avg_hops = f "avg_hops" float in
      let* max_hops = f "max_hops" int in
      let* energy_pj = f "energy_pj" float in
      Some { backend; links; avg_hops; max_hops; energy_pj }
    in
    let route_of_json r =
      let f k conv = Option.bind (J.member k r) conv in
      let* src = f "src" int in
      let* dst = f "dst" int in
      let* path = Option.bind (J.member "path" r) (list int) in
      Some ((src, dst), path)
    in
    let link_of_json = function
      | J.List [ J.Int u; J.Int v ] -> Some (u, v)
      | _ -> None
    in
    let result =
      let* key = field "key" str in
      let* cores = field "cores" int in
      let* flows = field "flows" int in
      let* cost = field "cost" float in
      let* timed_out = field "timed_out" bool in
      let* degraded = field "degraded" bool in
      let gap_pct =
        match J.member "gap_pct" j with Some v -> float v | None -> None
      in
      let* constraints_met = field "constraints_met" bool in
      let* topology = Option.bind (J.member "topology" j) (list link_of_json) in
      let* routes = Option.bind (J.member "routes" j) (list route_of_json) in
      let* backends = Option.bind (J.member "backends" j) (list backend_of_json) in
      let* p = J.member "provenance" j in
      let pf k conv = Option.bind (J.member k p) conv in
      let* library = pf "library" str in
      let budget_timeout_s =
        match J.member "budget_timeout_s" p with Some v -> float v | None -> None
      in
      let* budget_max_nodes = pf "budget_max_nodes" int in
      let* canonical = pf "canonical" bool in
      Some
        {
          key;
          cores;
          flows;
          cost;
          timed_out;
          degraded;
          gap_pct;
          constraints_met;
          topology;
          routes;
          backends;
          provenance = { library; budget_timeout_s; budget_max_nodes; canonical };
        }
    in
    match result with
    | Some r -> Ok r
    | None -> Error (`Msg "Proto.Response.of_json: malformed response object")

  let of_string s =
    match J.parse s with
    | Error (`Msg m) -> Error (`Msg ("Proto.Response.of_string: " ^ m))
    | Ok j -> of_json j
end
