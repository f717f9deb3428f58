module D = Noc_graph.Digraph
module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Syn = Noc_core.Synthesis
module Edge_map = D.Edge_map
module Obs = Noc_obs.Obs
module J = Obs.Json

type config = {
  max_inflight : int;
  max_cores : int;
  max_request_bytes : int;
  max_timeout_s : float option;
}

let default_config =
  {
    max_inflight = 64;
    max_cores = 4096;
    max_request_bytes = 1 lsl 20;
    max_timeout_s = None;
  }

type error_stats = {
  replies : int;
  ok : int;
  bad_request : int;
  over_budget : int;
  shed : int;
  internal : int;
}

type t = {
  cache : Cache.t;
  observe : Obs.t;
  config : config;
  fault_hook : (unit -> bool) option;
  c_requests : Obs.Counter.t;
  c_replies : Obs.Counter.t;
  c_ok : Obs.Counter.t;
  c_errors : Obs.Counter.t;
  c_shed : Obs.Counter.t;
  mutable replies : int;
  mutable ok : int;
  mutable bad_request : int;
  mutable over_budget : int;
  mutable shed : int;
  mutable internal : int;
}

type status = Hit | Miss

type outcome = {
  request_id : string;
  key : string;
  response : Proto.Response.t;
  bytes : string;
  status : status;
  wall_s : float;
}

type reply = (outcome, Proto.Error.t) result

exception Injected_fault

let create ?cache_capacity ?(config = default_config) ?fault_hook
    ?(observe = Obs.disabled) () =
  {
    cache = Cache.create ?capacity:cache_capacity ~observe ();
    observe;
    config;
    fault_hook;
    c_requests = Obs.counter observe "serve.requests";
    c_replies = Obs.counter observe "serve.replies";
    c_ok = Obs.counter observe "serve.ok";
    c_errors = Obs.counter observe "serve.errors";
    c_shed = Obs.counter observe "serve.shed";
    replies = 0;
    ok = 0;
    bad_request = 0;
    over_budget = 0;
    shed = 0;
    internal = 0;
  }

let cache_stats t = Cache.stats t.cache
let cache t = t.cache
let config t = t.config

let error_stats t =
  {
    replies = t.replies;
    ok = t.ok;
    bad_request = t.bad_request;
    over_budget = t.over_budget;
    shed = t.shed;
    internal = t.internal;
  }

(* every reply, success or failure, funnels through here: the obs counters
   and the local mirror can never disagree with what went on the wire *)
let account t (r : reply) =
  t.replies <- t.replies + 1;
  Obs.Counter.incr t.c_replies;
  (match r with
  | Ok _ ->
      t.ok <- t.ok + 1;
      Obs.Counter.incr t.c_ok
  | Error e -> (
      Obs.Counter.incr t.c_errors;
      Obs.Counter.incr (Obs.counter t.observe (Proto.Error.counter_name e));
      match e with
      | Proto.Error.Bad_request _ -> t.bad_request <- t.bad_request + 1
      | Proto.Error.Over_budget _ -> t.over_budget <- t.over_budget + 1
      | Proto.Error.Shed _ ->
          t.shed <- t.shed + 1;
          Obs.Counter.incr t.c_shed
      | Proto.Error.Internal _ -> t.internal <- t.internal + 1));
  r

exception Bad of string

let compute t (req : Proto.Request.t) ~key ~labeling =
  (match t.fault_hook with
  | Some hook when hook () -> raise Injected_fault
  | _ -> ());
  let library =
    match Proto.Request.library_of_name req.library with
    | Some l -> l
    | None -> raise (Bad (Printf.sprintf "unknown library %S" req.library))
  in
  (* synthesize on the canonical relabeling: the search is deterministic,
     so every ACG isomorphic to this one produces these exact bytes *)
  let canonical, acg =
    match Acg.form_of_labeling labeling with
    | Some (acg, _mapping) -> (true, acg)
    | None -> (false, req.acg)
  in
  (* the deadline guard: any finite wall budget runs with the greedy
     anytime fallback seeded, so exhaustion downgrades to a feasible
     answer with a reported gap instead of overrunning or failing *)
  let options =
    {
      Bb.default_options with
      constraints = req.constraints;
      fallback = req.budget.Bb.Budget.timeout_s <> None;
    }
  in
  let d, stats =
    Bb.decompose ~options ~budget:req.budget ~observe:t.observe ~library acg
  in
  let arch = Syn.custom acg d in
  let topology = D.undirected_edges arch.Syn.topology in
  let routes = Edge_map.bindings arch.Syn.routes in
  {
    Proto.Response.key;
    cores = Acg.num_cores acg;
    flows = Acg.num_flows acg;
    cost = stats.Bb.best_cost;
    timed_out = stats.Bb.timed_out;
    degraded = stats.Bb.fallback_used;
    gap_pct = stats.Bb.gap_pct;
    constraints_met = stats.Bb.constraints_met;
    topology;
    routes;
    backends = Backends.compare_all acg ~custom:arch;
    provenance =
      {
        library = req.library;
        budget_timeout_s = req.budget.Bb.Budget.timeout_s;
        budget_max_nodes = req.budget.Bb.Budget.max_nodes;
        canonical;
      };
  }

(* The isolation funnel: admission guards first (cheap, typed), then the
   pipeline under a catch-all — any escaping exception becomes an
   [Internal] reply, never a dead daemon.  Error replies are not cached:
   an injected or transient fault must not poison the content-addressed
   store. *)
let solve t (req : Proto.Request.t) : reply =
  Obs.Counter.incr t.c_requests;
  account t
    (if Bb.Budget.starved req.budget then
       Error
         (Proto.Error.Over_budget
            (Printf.sprintf "declared timeout %g s is already expired"
               (Option.value ~default:0.0 req.budget.Bb.Budget.timeout_s)))
     else if Acg.num_cores req.acg > t.config.max_cores then
       Error
         (Proto.Error.Bad_request
            (Printf.sprintf "ACG has %d cores, limit is %d"
               (Acg.num_cores req.acg) t.config.max_cores))
     else
       (* the effective budget is the guarded one: it feeds both the search
          and the cache key, so two requests the guard makes equal share an
          entry *)
       let budget = Bb.Budget.clamp_service ?max_timeout_s:t.config.max_timeout_s req.budget in
       let req = { req with budget } in
       match
         Noc_util.Timer.time (fun () ->
             Obs.span t.observe ~cat:"serve" "solve" (fun () ->
                 (* one labeling per request: the key comes from it, and
                    on a miss so does the relabeled ACG *)
                 let labeling = Acg.canonical_labeling req.acg in
                 let key = Proto.Request.cache_key_of_labeling req labeling in
                 match Cache.find t.cache key with
                 | Some (bytes, response) -> (key, response, bytes, Hit)
                 | None ->
                     let response = compute t req ~key ~labeling in
                     let bytes = Proto.Response.to_string response in
                     Cache.add t.cache key (bytes, response);
                     (key, response, bytes, Miss)))
       with
       | (key, response, bytes, status), wall_s ->
           Ok { request_id = req.id; key; response; bytes; status; wall_s }
       | exception Bad m -> Error (Proto.Error.Bad_request m)
       | exception Injected_fault -> Error (Proto.Error.Internal "injected fault")
       | exception e -> Error (Proto.Error.Internal (Printexc.to_string e)))

let solve_exn t req =
  match solve t req with
  | Ok o -> o
  | Error e -> failwith (Proto.Error.to_string e)

(* Bounded admission: the first [max_inflight] requests of a batch are
   queued, the rest are shed immediately — the daemon's memory is bounded
   by the admission window, never by the client's burst size. *)
let serve_batch t reqs =
  List.mapi
    (fun i req ->
      if i >= t.config.max_inflight then begin
        Obs.Counter.incr t.c_requests;
        account t
          (Error
             (Proto.Error.Shed
                (Printf.sprintf "admission queue full (max inflight %d)"
                   t.config.max_inflight)))
      end
      else solve t req)
    reqs

let solve_text t ?library ?budget ~id text : reply =
  if String.length text > t.config.max_request_bytes then begin
    Obs.Counter.incr t.c_requests;
    account t
      (Error
         (Proto.Error.Bad_request
            (Printf.sprintf "request is %d bytes, limit is %d" (String.length text)
               t.config.max_request_bytes)))
  end
  else
    match Noc_core.Acg_io.parse text with
    | Error (`Msg m) ->
        Obs.Counter.incr t.c_requests;
        account t (Error (Proto.Error.Bad_request m))
    | Ok acg -> solve t (Proto.Request.make ~id ?library ?budget acg)

type loop_stats = { served : int; ok : int; errors : int; shed : int }

let run_loop ?library ?(budget = Bb.Budget.default) t ic oc =
  let served = ref 0 and ok = ref 0 and errors = ref 0 and shed = ref 0 in
  let emit json =
    output_string oc (J.to_string json);
    output_char oc '\n';
    flush oc
  in
  let reply_json id = function
    | Ok (o : outcome) ->
        incr ok;
        J.Obj
          [
            ("id", J.Str o.request_id);
            ("cache", J.Str (match o.status with Hit -> "hit" | Miss -> "miss"));
            ("wall_s", J.Float o.wall_s);
            ("response", Proto.Response.to_json o.response);
          ]
    | Error e ->
        incr errors;
        (match e with Proto.Error.Shed _ -> incr shed | _ -> ());
        J.Obj [ ("id", J.Str id); ("error", Proto.Error.to_json e) ]
  in
  let handle line =
    (* one request line = one ACG file path; every failure mode of the
       read-parse-solve pipeline lands in the same typed funnel *)
    if String.length line > t.config.max_request_bytes then begin
      Obs.Counter.incr t.c_requests;
      account t
        (Error
           (Proto.Error.Bad_request
              (Printf.sprintf "request line is %d bytes, limit is %d"
                 (String.length line) t.config.max_request_bytes)))
    end
    else
      (* size check before the read: an oversized file is rejected from
         its metadata, never pulled into memory *)
      let size =
        match (Unix.stat line).Unix.st_size with
        | s -> Ok s
        | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
      in
      match size with
      | Error m ->
          Obs.Counter.incr t.c_requests;
          account t (Error (Proto.Error.Bad_request (line ^ ": " ^ m)))
      | Ok s when s > t.config.max_request_bytes ->
          Obs.Counter.incr t.c_requests;
          account t
            (Error
               (Proto.Error.Bad_request
                  (Printf.sprintf "%s is %d bytes, limit is %d" line s
                     t.config.max_request_bytes)))
      | Ok _ -> (
          match In_channel.with_open_bin line In_channel.input_all with
          | exception Sys_error m ->
              Obs.Counter.incr t.c_requests;
              account t (Error (Proto.Error.Bad_request m))
          | text -> solve_text t ?library ~budget ~id:line text)
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        let line = String.trim line in
        if line = "" || (String.length line > 0 && line.[0] = '#') then loop ()
        else if line = "quit" then ()
        else begin
          (* the last-resort isolation layer: even a failure while
             rendering or emitting the reply must not kill the loop *)
          let r =
            try handle line
            with e -> account t (Error (Proto.Error.Internal (Printexc.to_string e)))
          in
          incr served;
          (try emit (reply_json line r)
           with e ->
             emit
               (J.Obj
                  [
                    ("id", J.Str line);
                    ( "error",
                      Proto.Error.(to_json (Internal (Printexc.to_string e))) );
                  ]));
          loop ()
        end
  in
  loop ();
  { served = !served; ok = !ok; errors = !errors; shed = !shed }
