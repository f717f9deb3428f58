(* The two service workloads: [serve-hot] (isomorphic copies, so the
   content-addressed cache answers almost everything) and [synth-cold]
   (distinct large ACGs, so every request runs the search).

   Both are closed loops with one client: the next request goes out when
   the previous reply is back.  Each pass sends the whole stream to a fresh
   daemon, so the first request for each base ACG misses in every pass.

   The untraced pass goes through [Daemon.solve_text].  The traced pass
   replays the daemon's pipeline call by call ({!replay}) with a span around
   each layer, and must return the same bytes for every request. *)

module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Syn = Noc_core.Synthesis
module D = Noc_graph.Digraph
module Daemon = Noc_serve.Daemon
module Proto = Noc_serve.Proto
module Cache = Noc_serve.Cache
module Prng = Noc_util.Prng
module Corpus = Noc_benchkit.Corpus
open Workload

(* node-counted, never wall-clock: truncation must not depend on load *)
let budget = Bb.Budget.(default |> with_max_nodes 20_000)

type request = { base : int; text : string }

(* [Daemon.solve_text] -> [solve] -> [compute], call by call.  The daemon
   runs with its default config, so admission passes and [clamp_service]
   leaves the budget as sent. *)
let replay tr cache text =
  Trace.span tr "daemon.solve" @@ fun () ->
  match Trace.span tr "acg_io.parse" (fun () -> Noc_core.Acg_io.parse text) with
  | Error (`Msg m) -> Error m
  | Ok acg -> (
      let req = Proto.Request.make ~budget acg in
      let req = { req with budget = Bb.Budget.clamp_service req.budget } in
      let key = Trace.span tr "canon.hash" (fun () -> Proto.Request.cache_key req) in
      match Trace.span tr "cache.find" (fun () -> Cache.find cache key) with
      | Some (bytes, _) -> Ok (bytes, Daemon.Hit)
      | None ->
          let library = Option.get (Proto.Request.library_of_name req.library) in
          let canonical, acg =
            match Trace.span tr "canon.form" (fun () -> Acg.canonical_form req.acg) with
            | Some (acg, _) -> (true, acg)
            | None -> (false, req.acg)
          in
          let options =
            {
              Bb.default_options with
              constraints = req.constraints;
              fallback = req.budget.Bb.Budget.timeout_s <> None;
            }
          in
          let d, st =
            Trace.span tr "bb.decompose" (fun () ->
                Bb.decompose ~options ~budget:req.budget ~library acg)
          in
          count_search tr st;
          let arch = Trace.span tr "synthesis.custom" (fun () -> Syn.custom acg d) in
          let topology =
            D.fold_edges (fun u v acc -> (min u v, max u v) :: acc) arch.Syn.topology []
            |> List.sort_uniq compare
          in
          let backends =
            Trace.span tr "backends.compare_all" (fun () ->
                Noc_serve.Backends.compare_all acg ~custom:arch)
          in
          let response =
            {
              Proto.Response.key;
              cores = Acg.num_cores acg;
              flows = Acg.num_flows acg;
              cost = st.Bb.best_cost;
              timed_out = st.Bb.timed_out;
              degraded = st.Bb.fallback_used;
              gap_pct = st.Bb.gap_pct;
              constraints_met = st.Bb.constraints_met;
              topology;
              routes = D.Edge_map.bindings arch.Syn.routes;
              backends;
              provenance =
                {
                  library = req.library;
                  budget_timeout_s = req.budget.Bb.Budget.timeout_s;
                  budget_max_nodes = req.budget.Bb.Budget.max_nodes;
                  canonical;
                };
            }
          in
          let bytes = Trace.span tr "proto.encode" (fun () -> Proto.Response.to_string response) in
          Trace.span tr "cache.add" (fun () -> Cache.add cache key (bytes, response));
          Ok (bytes, Daemon.Miss))

(* [count] streams of seeded relabelings of each base ACG, [copies] of
   the base with that many, rendered to text and shuffled; pass [i] sends
   stream [i mod count] *)
let streams ~seed ~count bases =
  let rng = Prng.create ~seed in
  Array.init count (fun _ ->
      let reqs =
        List.concat
          (List.mapi
             (fun base (copies, acg) ->
               List.init copies (fun _ ->
                   { base; text = Noc_core.Acg_io.to_string (Noc_serve.Replay.permute ~rng acg) }))
             bases)
        |> Array.of_list
      in
      Prng.shuffle rng reqs;
      reqs)

let instance streams ~nbases =
  let n = Array.length streams.(0) in
  let current = ref (-1) in
  (* per base: the first miss's bytes and response, which every later
     reply for that base must equal byte for byte *)
  let first = Array.make nbases None in
  let last = Array.make n "" in
  (* the pass's answer per base, the same whichever stream carried it *)
  let fingerprint replies =
    let by_base = Array.make nbases "" in
    Array.iteri (fun i r -> if by_base.(r.base) = "" then by_base.(r.base) <- replies.(i)) streams.(!current);
    digest_strings (Array.to_list by_base)
  in
  let untraced_ms = ref 0.0 and untraced_ops = ref 0 in
  let hits = ref 0 and requests = ref 0 in
  let expected_status seen r =
    if Hashtbl.mem seen r.base then Daemon.Hit
    else begin
      Hashtbl.add seen r.base ();
      Daemon.Miss
    end
  in
  let check i r status bytes ~expect =
    let same =
      match first.(r.base) with
      | None -> true
      | Some (b, _) -> String.equal b bytes
    in
    Check.op (status = expect && same) (fun () ->
        Printf.sprintf "request %d (base %d): %s" i r.base
          (if same then "unexpected cache status" else "bytes differ from the first miss"))
  in
  let untraced () =
    current := (!current + 1) mod Array.length streams;
    let reqs = streams.(!current) in
    let daemon = Daemon.create () in
    let seen = Hashtbl.create nbases in
    let lat =
      Array.mapi
        (fun i r ->
          let reply, ms =
            time_ms (fun () -> Daemon.solve_text daemon ~budget ~id:(string_of_int i) r.text)
          in
          let expect = expected_status seen r in
          (match reply with
          | Error e ->
              Check.op false (fun () ->
                  Printf.sprintf "request %d: %s" i (Proto.Error.to_string e));
              last.(i) <- ""
          | Ok o ->
              if first.(r.base) = None then first.(r.base) <- Some (o.Daemon.bytes, o.Daemon.response);
              check i r o.Daemon.status o.Daemon.bytes ~expect;
              if o.Daemon.status = Daemon.Hit then incr hits;
              last.(i) <- o.Daemon.bytes);
          ms)
        reqs
    in
    requests := !requests + n;
    untraced_ms := !untraced_ms +. Array.fold_left ( +. ) 0.0 lat;
    untraced_ops := !untraced_ops + n;
    { lat_ms = lat; fingerprint = fingerprint last }
  in
  (* runs right after an untraced pass, on the same stream, whose bytes are
     in [last] *)
  let traced tr =
    let reqs = streams.(!current) in
    let cache = Cache.create ~observe:Noc_obs.Obs.disabled () in
    let seen = Hashtbl.create nbases in
    let out = Array.make n "" in
    let lat =
      Array.mapi
        (fun i r ->
          Trace.set_op tr i;
          let reply, ms = time_ms (fun () -> replay tr cache r.text) in
          let expect = expected_status seen r in
          (match reply with
          | Error m -> Check.op false (fun () -> Printf.sprintf "replayed request %d: %s" i m)
          | Ok (bytes, status) ->
              if status = Daemon.Hit then Trace.count tr "cache.hits" 1.0;
              out.(i) <- bytes;
              Check.op
                (status = expect && String.equal bytes last.(i))
                (fun () ->
                  Printf.sprintf "replayed request %d: differs from Daemon.solve_text" i));
          ms)
        reqs
    in
    { lat_ms = lat; fingerprint = fingerprint out }
  in
  let quality () =
    let sum f = Array.fold_left (fun acc o -> match o with Some (_, r) -> acc +. f r | None -> acc) 0.0 first in
    let energy backend r = energy backend r.Proto.Response.backends in
    (sum (fun r -> r.Proto.Response.cost), ratio (sum (energy "custom")) (sum (energy "mesh")))
  in
  let layers tr =
    let requests = float_of_int (Trace.calls tr "daemon.solve") in
    let per_request name = ratio (float_of_int (Trace.calls tr name)) requests in
    let children =
      [ "acg_io.parse"; "canon.hash"; "cache.find"; "canon.form"; "bb.decompose";
        "synthesis.custom"; "backends.compare_all"; "proto.encode"; "cache.add" ]
    in
    let child_ms = List.fold_left (fun acc l -> acc +. Trace.total_ms tr l) 0.0 children in
    List.map (fun l -> (l ^ ".ms", Trace.ms tr l)) children
    @ search_layers tr
    @ [
        ("canon.hash.calls", per_request "canon.hash");
        ("canon.form.calls", per_request "canon.form");
        ("cache.hit_ratio", ratio (Trace.counted tr "cache.hits") requests);
        ("daemon.solve.ms", ratio !untraced_ms (float_of_int !untraced_ops));
        (* the replayed daemon's own time: glue between the layer calls *)
        ("daemon.unattributed_ms", ratio (Trace.total_ms tr "daemon.solve" -. child_ms) requests);
      ]
  in
  let record () = [ ("cache_hit_ratio", ratio (float_of_int !hits) (float_of_int !requests)) ] in
  {
    pass = (fun tr -> if tr.Trace.on then traced tr else untraced ());
    quality;
    record;
    layers;
  }

(* serve-hot: the 12 corpus scenarios, 18 small fuzz-corpus ACGs and three
   32-core scale ACGs; 33 isomorphic copies of each but fft16, shuffled.
   The first copy of a base misses.  Two streams with fresh relabelings
   alternate over the passes.  The copies place p90 and p99 in the fastest
   third of one base's hits, where host noise must slow most of that base's
   requests to move them:
   - fft16's labeling (~60 ms) is the top 15 of 1071 requests; p99, the
     11th from the top, is the fifth fastest of its 14 hits;
   - aes and the two clustered graphs (1.1-1.8 ms) are the next 99, and
     p90, the 108th, falls in the fastest quarter of clustered-32 seed 3's;
   - p50 falls among the sub-millisecond hits. *)
let hot_bases () =
  let rec fuzz seed acc =
    if List.length acc = 18 then List.rev acc
    else
      let acg = Noc_oracle.Fuzz.gen_acg ~rng:(Prng.create ~seed) in
      fuzz (seed + 1) (if Acg.num_flows acg > 0 then acg :: acc else acc)
  in
  let copies s = if s.Corpus.name = "fft16" then 15 else 33 in
  List.map (fun s -> (copies s, s.Corpus.acg)) (Corpus.default ())
  @ List.map
      (fun acg -> (33, acg))
      (fuzz 1 []
      @ [
          Corpus.random ~seed:2 ~n:32;
          Corpus.clustered ~seed:3 ~n:32;
          Corpus.clustered ~seed:4 ~n:32;
        ])

let serve_hot =
  {
    name = "serve-hot";
    setup =
      (fun ~seed _tr ->
        let bases = hot_bases () in
        instance (streams ~seed ~count:2 bases) ~nbases:(List.length bases));
  }

(* synth-cold: 200 distinct ACGs per pass.  168 sparse layered and ER
   graphs (32-128 cores) expand one search node; 32 clustered graphs are
   dominated by the search.  The top 1.5% are one clustered 96-core graph
   (~0.2 s) with its volumes scaled by 1, 2 and 3: three distinct requests
   with the same search, so p99 falls in the fastest third of the same
   work, where host noise must slow most of those requests to move it.
   The eight 64-core graphs and the 16 48-core ones come next, and p90
   falls among the 48-core ones; p50 falls among the sparse graphs.  Four
   streams, each with its own relabelings and order, alternate over the
   passes: a request's time includes collecting the garbage its
   predecessors left, so a single order would tie a whole run to one
   seed's draw. *)
let cold_bases () =
  let family gen sizes =
    List.concat_map (fun (n, k) -> List.init k (fun i -> gen ~seed:(i + 1) ~n)) sizes
  in
  let heavy = Corpus.clustered ~seed:1 ~n:96 in
  let scaled k =
    Acg.make ~graph:heavy.Acg.graph
      ~volume:(D.Edge_map.map (( * ) k) heavy.Acg.volume)
      ~bandwidth:heavy.Acg.bandwidth ()
  in
  family Corpus.layered [ (32, 24); (48, 24); (64, 20); (96, 8); (128, 8) ]
  @ family Corpus.random [ (32, 24); (48, 24); (64, 20); (96, 8); (128, 8) ]
  @ family Corpus.clustered [ (32, 5); (48, 16); (64, 8) ]
  @ List.map scaled [ 1; 2; 3 ]

let synth_cold =
  {
    name = "synth-cold";
    setup =
      (fun ~seed _tr ->
        let bases = cold_bases () in
        instance
          (streams ~seed ~count:4 (List.map (fun acg -> (1, acg)) bases))
          ~nbases:(List.length bases));
  }
