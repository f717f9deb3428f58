(* Service-layer suite: the canonical-hash contract (cross-checked against
   the exhaustive isomorphism oracle on small ACGs), the daemon's
   content-addressed cache, and the replay load driver.  Everything here
   leans on one invariant: the response bytes are a pure function of the
   cache key, so isomorphic requests are indistinguishable on the wire. *)

module D = Noc_graph.Digraph
module G = Noc_graph.Generators
module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Prng = Noc_util.Prng
module Proto = Noc_serve.Proto
module Daemon = Noc_serve.Daemon
module Cache = Noc_serve.Cache
module Chaos = Noc_serve.Chaos
module Replay = Noc_serve.Replay
module Iso = Noc_oracle.Iso

let ok_exn = function
  | Ok (o : Daemon.outcome) -> o
  | Error e -> Alcotest.fail ("unexpected error reply: " ^ Proto.Error.to_string e)

let is_canon h = String.length h >= 6 && String.equal (String.sub h 0 6) "canon:"

(* random attributed ACG on <= 8 vertices, attributes drawn from a tiny
   alphabet so independently generated pairs collide structurally often
   enough to exercise the oracle cross-check in both directions *)
let small_acg ~rng ~n =
  let g = G.erdos_renyi ~rng ~n ~p:0.35 in
  let g = if D.num_edges g = 0 then D.add_edge g 1 2 else g in
  let quads =
    D.fold_edges
      (fun u v acc ->
        (u, v, 1 + Prng.int rng 3, 0.5 *. float_of_int (Prng.int rng 3)) :: acc)
      g []
  in
  Acg.of_weighted_edges quads

let quadruples acg =
  D.fold_edges
    (fun u v acc -> (u, v, Acg.volume acg u v, Acg.bandwidth acg u v) :: acc)
    (Acg.graph acg) []
  |> List.rev

(* ground-truth attributed-graph isomorphism by exhaustive enumeration:
   equal vertex and edge counts make any monomorphism a bijection, so it
   only remains to check the attributes ride along *)
let acg_isomorphic a b =
  let ga = Acg.graph a and gb = Acg.graph b in
  D.num_vertices ga = D.num_vertices gb
  && D.num_edges ga = D.num_edges gb
  && List.exists
       (fun m ->
         D.fold_edges
           (fun u v ok ->
             let u' = D.Vmap.find u m and v' = D.Vmap.find v m in
             ok
             && Acg.volume a u v = Acg.volume b u' v'
             && Acg.bandwidth a u v = Acg.bandwidth b u' v')
           ga true)
       (Iso.find_all ~pattern:ga ~target:gb)

(* Property: isomorphic relabelings never change the canonical hash. *)
let qcheck_hash_permutation_invariant =
  QCheck.Test.make ~name:"canonical hash is permutation-invariant" ~count:60
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed:(seed + 9000) in
      let acg = Noc_oracle.Fuzz.gen_acg ~rng in
      let h = Acg.canonical_hash acg in
      (not (is_canon h))
      || String.equal h (Acg.canonical_hash (Replay.permute ~rng acg))
         && String.equal h (Acg.canonical_hash (Replay.permute ~rng acg)))

(* [disjoint gs]: the union of [gs], each shifted above the largest vertex
   of the graphs before it *)
let disjoint gs =
  List.fold_left
    (fun (off, acc) g ->
      let top = D.fold_vertices (fun v m -> max v m) g 0 in
      (off + top, D.union acc (D.map_vertices (fun v -> v + off) g)))
    (0, D.empty) gs
  |> snd

let undirected es = D.of_edges (List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) es)

(* the 4x4 rook's graph (K4 x K4) and the Shrikhande graph (Z4 x Z4 with
   steps (0, 1), (1, 0) and (1, 1)): both strongly regular (16, 6, 2, 2),
   and not isomorphic *)
let rook_and_shrikhande () =
  let id i j = (4 * (i land 3)) + (j land 3) + 1 in
  let cells = List.init 16 (fun k -> (k / 4, k mod 4)) in
  let rook =
    List.concat_map
      (fun (i, j) ->
        List.filter_map
          (fun (k, l) -> if (i = k) <> (j = l) then Some (id i j, id k l) else None)
          cells)
      cells
  in
  let shrikhande =
    List.concat_map
      (fun (i, j) ->
        List.map (fun (a, b) -> (id i j, id (i + a) (j + b))) [ (0, 1); (1, 0); (1, 1) ])
      cells
  in
  (D.of_edges rook, undirected shrikhande)

(* volumes drawn from [1 .. k] edge by edge *)
let with_volumes ~rng ~k g =
  Acg.of_weighted_edges
    (D.fold_edges (fun u v acc -> (u, v, 1 + Prng.int rng k, 0.1) :: acc) g [])

(* Property: the hash is invariant on graphs whose refinement stalls, so
   the labeling must individualize and compare many leaves: rings 3+3+6
   and 4+5, the directed loops 3+5, K4 + Q3, the rook's graph and the
   Shrikhande graph, with volumes drawn edge by edge from [1 .. k], k in
   {1, 2, 3} (k = 1 keeps every symmetry).  Every draw must label
   [canon:].  A search that skipped a sibling outside every known orbit
   would pick another leaf for some relabelings and split the hash: on a
   uniform disjoint union, the first vertex of the root's one cell lies
   in either part. *)
let qcheck_hash_invariant_when_refinement_stalls =
  let ring = G.bidirectional_ring in
  let rook, shrikhande = rook_and_shrikhande () in
  let shapes =
    [
      disjoint [ ring 3; ring 3; ring 6 ];
      disjoint [ ring 4; ring 5 ];
      disjoint [ G.loop 3; G.loop 5 ];
      disjoint [ G.complete 4; G.hypercube 3 ];
      rook;
      shrikhande;
    ]
  in
  QCheck.Test.make ~name:"canonical hash is invariant on refinement-resistant graphs"
    ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed:(seed + 7000) in
      let acg = with_volumes ~rng ~k:(Prng.int_in rng 1 3) (Prng.choose rng shapes) in
      let h = Acg.canonical_hash (Replay.permute ~rng acg) in
      is_canon h && String.equal h (Acg.canonical_hash (Replay.permute ~rng acg)))

(* Property: on small ACGs the hash decides isomorphism exactly — equal
   hashes iff the exhaustive oracle finds an attribute-preserving
   bijection.  The pair generator mixes permutations (isomorphic by
   construction), single-attribute mutations (almost never isomorphic),
   independent graphs, and pairs of 8-vertex graphs of one degree (C8,
   C4 + C4, C3 + C5, K4 + K4, Q3) with uniform or {1, 2} volumes, which
   refinement alone never tells apart, so both sides of the iff are
   exercised. *)
let qcheck_hash_decides_isomorphism =
  let regular8 =
    let ring = G.bidirectional_ring in
    [
      ring 8;
      disjoint [ ring 4; ring 4 ];
      disjoint [ ring 3; ring 5 ];
      disjoint [ G.complete 4; G.complete 4 ];
      G.hypercube 3;
    ]
  in
  QCheck.Test.make ~name:"hash equality coincides with oracle isomorphism"
    ~count:120
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, which) ->
      let rng = Prng.create ~seed:(seed + 4000) in
      let n = 3 + Prng.int rng 6 in
      let a = small_acg ~rng ~n in
      let a, b =
        match which with
        | 0 -> (a, Replay.permute ~rng a)
        | 1 ->
            (* bump one volume: same shape, different attributed graph *)
            let quads =
              match quadruples a with
              | (u, v, vol, bw) :: rest -> (u, v, vol + 1, bw) :: rest
              | [] -> assert false
            in
            (a, Replay.permute ~rng (Acg.of_weighted_edges quads))
        | 2 -> (a, small_acg ~rng ~n)
        | _ ->
            let pick () =
              with_volumes ~rng ~k:(1 + Prng.int rng 2) (Prng.choose rng regular8)
            in
            let a = pick () in
            (a, Replay.permute ~rng (pick ()))
      in
      let ha = Acg.canonical_hash a and hb = Acg.canonical_hash b in
      (not (is_canon ha && is_canon hb))
      || Bool.equal (String.equal ha hb) (acg_isomorphic a b))

let short_budget = Bb.Budget.(default |> with_timeout_s (Some 1.0))

(* Property (cache determinism): a batch through one daemon and solo
   requests through a fresh daemon each produce byte-identical responses,
   whether an entry came from the search or from the cache. *)
let qcheck_batch_matches_solo =
  QCheck.Test.make ~name:"batched and solo responses are byte-identical"
    ~count:15 QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed:(seed + 500) in
      let a = Noc_oracle.Fuzz.gen_acg ~rng and b = Noc_oracle.Fuzz.gen_acg ~rng in
      (* duplicates and a permuted copy inside the stream: the batch path
         must serve them from cache yet stay indistinguishable *)
      let stream = [ a; b; a; Replay.permute ~rng a; b ] in
      let reqs = List.map (fun g -> Proto.Request.make ~budget:short_budget g) stream in
      let batched = Daemon.serve_batch (Daemon.create ()) reqs in
      let solo =
        List.map (fun r -> Daemon.solve_exn (Daemon.create ()) r) reqs
      in
      List.for_all2
        (fun reply (y : Daemon.outcome) ->
          match reply with
          | Error _ -> false
          | Ok (x : Daemon.outcome) ->
              String.equal x.Daemon.bytes y.Daemon.bytes
              && String.equal
                   (Proto.Response.to_string x.Daemon.response)
                   x.Daemon.bytes)
        batched solo)

let test_batch_dedup () =
  let rng = Prng.create ~seed:11 in
  let a = Noc_oracle.Fuzz.gen_acg ~rng in
  let daemon = Daemon.create () in
  let reqs =
    List.map
      (fun g -> Proto.Request.make ~budget:short_budget g)
      [ a; a; Replay.permute ~rng a ]
  in
  let outcomes = List.map ok_exn (Daemon.serve_batch daemon reqs) in
  let statuses = List.map (fun (o : Daemon.outcome) -> o.Daemon.status) outcomes in
  Alcotest.(check int) "one key" 1
    (List.sort_uniq compare (List.map (fun (o : Daemon.outcome) -> o.Daemon.key) outcomes)
    |> List.length);
  Alcotest.(check bool) "first misses" true (List.hd statuses = Daemon.Miss);
  Alcotest.(check int) "rest hit" 2
    (List.length (List.filter (fun s -> s = Daemon.Hit) statuses));
  let c = Daemon.cache_stats daemon in
  Alcotest.(check int) "cache hits" 2 c.Noc_serve.Cache.hits;
  Alcotest.(check int) "cache misses" 1 c.Noc_serve.Cache.misses

let test_cache_eviction () =
  let rng = Prng.create ~seed:3 in
  let a = Noc_oracle.Fuzz.gen_acg ~rng and b = Noc_oracle.Fuzz.gen_acg ~rng in
  let daemon = Daemon.create ~cache_capacity:1 () in
  let solve g = Daemon.solve_exn daemon (Proto.Request.make ~budget:short_budget g) in
  ignore (solve a);
  ignore (solve b);
  (* capacity 1: b evicted a, so a misses again *)
  let o = solve a in
  Alcotest.(check bool) "a recomputed" true (o.Daemon.status = Daemon.Miss);
  let c = Daemon.cache_stats daemon in
  Alcotest.(check bool) "evictions counted" true (c.Noc_serve.Cache.evictions >= 2);
  Alcotest.(check int) "bounded size" 1 c.Noc_serve.Cache.size

let test_domains_not_in_key () =
  let rng = Prng.create ~seed:21 in
  let a = Noc_oracle.Fuzz.gen_acg ~rng in
  let daemon = Daemon.create () in
  let solve budget = Daemon.solve_exn daemon (Proto.Request.make ~budget a) in
  let o1 = solve Bb.Budget.(short_budget |> with_domains 1) in
  let o2 = solve Bb.Budget.(short_budget |> with_domains 4) in
  Alcotest.(check string) "same key" o1.Daemon.key o2.Daemon.key;
  Alcotest.(check bool) "domains=4 hits" true (o2.Daemon.status = Daemon.Hit);
  let o3 = solve Bb.Budget.(short_budget |> with_max_nodes 123) in
  Alcotest.(check bool) "max_nodes is keyed" true
    (not (String.equal o1.Daemon.key o3.Daemon.key))

(* The cache key excludes [domains], so a search with constraint checks
   must return the same incumbent at every domain count.  Each domain
   count gets a fresh daemon, so every reply is a real search.  Inputs:
   the corpus and 50 fuzz ACGs, under the 180 nm constraints and under a
   variant whose links carry 2% of the bandwidth, so that many searches
   reject incumbents and some end with constraints unmet. *)
let test_domains_invariant_with_constraints () =
  let module Cons = Noc_core.Constraints in
  let base = Cons.of_technology Noc_energy.Technology.cmos_180nm in
  let tight = { base with Cons.link_bandwidth = base.Cons.link_bandwidth *. 0.02 } in
  let corpus = List.map (fun s -> s.Noc_benchkit.Corpus.acg) (Noc_benchkit.Corpus.default ()) in
  let fuzz =
    Seq.ints 1
    |> Seq.map (fun seed -> Noc_oracle.Fuzz.gen_acg ~rng:(Prng.create ~seed))
    |> Seq.filter (fun a -> Acg.num_flows a > 0)
    |> Seq.take 50 |> List.of_seq
  in
  let unmet = ref 0 and met = ref 0 in
  let answers = Buffer.create 4096 in
  List.iter
    (fun constraints ->
      List.iteri
        (fun i acg ->
          let solve domains =
            let budget = Bb.Budget.(default |> with_domains domains) in
            ok_exn (Daemon.solve (Daemon.create ()) (Proto.Request.make ~budget ~constraints acg))
          in
          let o1 = solve 1 in
          Buffer.add_string answers o1.Daemon.bytes;
          if o1.Daemon.response.Proto.Response.constraints_met then incr met else incr unmet;
          List.iter
            (fun d ->
              Alcotest.(check string)
                (Printf.sprintf "input %d: domains %d = domains 1" i d)
                o1.Daemon.bytes (solve d).Daemon.bytes)
            [ 2; 4 ])
        (corpus @ fuzz))
    [ base; tight ];
  (* the 124 answers themselves are pinned too *)
  Alcotest.(check string) "answers digest" "a25e4a51e8eb30b7ebc8c4e7d31e048d"
    (Digest.to_hex (Digest.string (Buffer.contents answers)));
  Alcotest.(check bool) "some searches end with constraints met" true (!met > 0);
  Alcotest.(check bool) "some searches end with constraints unmet" true (!unmet > 0)

let test_bad_request () =
  let rng = Prng.create ~seed:9 in
  let a = Noc_oracle.Fuzz.gen_acg ~rng in
  let daemon = Daemon.create () in
  (match Daemon.solve daemon (Proto.Request.make ~library:"no-such-library" a) with
  | Error (Proto.Error.Bad_request _) -> ()
  | Error e -> Alcotest.fail ("wrong error class: " ^ Proto.Error.class_name e)
  | Ok _ -> Alcotest.fail "expected a bad_request reply");
  (* request isolation: the daemon keeps serving after the error *)
  let o = ok_exn (Daemon.solve daemon (Proto.Request.make ~budget:short_budget a)) in
  Alcotest.(check bool) "daemon survives" true (o.Daemon.status = Daemon.Miss);
  let es = Daemon.error_stats daemon in
  Alcotest.(check int) "error counted" 1 es.Daemon.bad_request;
  Alcotest.(check int) "every reply counted" 2 es.Daemon.replies

let test_over_budget () =
  let rng = Prng.create ~seed:14 in
  let a = Noc_oracle.Fuzz.gen_acg ~rng in
  let daemon = Daemon.create () in
  let dead = Bb.Budget.(default |> with_timeout_s (Some 0.0)) in
  (match Daemon.solve daemon (Proto.Request.make ~budget:dead a) with
  | Error (Proto.Error.Over_budget _) -> ()
  | Error e -> Alcotest.fail ("wrong error class: " ^ Proto.Error.class_name e)
  | Ok _ -> Alcotest.fail "expected an over_budget reply");
  Alcotest.(check int) "counted" 1 (Daemon.error_stats daemon).Daemon.over_budget

let test_oversized_rejected () =
  let rng = Prng.create ~seed:15 in
  let a = small_acg ~rng ~n:8 in
  let config = { Daemon.default_config with Daemon.max_cores = 4 } in
  let daemon = Daemon.create ~config () in
  match Daemon.solve daemon (Proto.Request.make ~budget:short_budget a) with
  | Error (Proto.Error.Bad_request _) -> ()
  | Error e -> Alcotest.fail ("wrong error class: " ^ Proto.Error.class_name e)
  | Ok _ -> Alcotest.fail "expected oversized ACG to be rejected"

let test_injected_fault_isolated () =
  let rng = Prng.create ~seed:16 in
  let a = Noc_oracle.Fuzz.gen_acg ~rng in
  let arm = ref true in
  let fault_hook () =
    let fire = !arm in
    arm := false;
    fire
  in
  let daemon = Daemon.create ~fault_hook () in
  let req = Proto.Request.make ~budget:short_budget a in
  (match Daemon.solve daemon req with
  | Error (Proto.Error.Internal _) -> ()
  | Error e -> Alcotest.fail ("wrong error class: " ^ Proto.Error.class_name e)
  | Ok _ -> Alcotest.fail "expected the injected fault to surface as internal");
  (* the failed request was not cached and the daemon still answers it *)
  let o = ok_exn (Daemon.solve daemon req) in
  Alcotest.(check bool) "recomputed after fault" true (o.Daemon.status = Daemon.Miss);
  Alcotest.(check int) "internal counted" 1
    (Daemon.error_stats daemon).Daemon.internal

let test_batch_shedding () =
  let rng = Prng.create ~seed:17 in
  let acgs = List.init 4 (fun _ -> Noc_oracle.Fuzz.gen_acg ~rng) in
  let config = { Daemon.default_config with Daemon.max_inflight = 2 } in
  let daemon = Daemon.create ~config () in
  let reqs = List.map (fun g -> Proto.Request.make ~budget:short_budget g) acgs in
  let replies = Daemon.serve_batch daemon reqs in
  let shed = function Error (Proto.Error.Shed _) -> true | _ -> false in
  Alcotest.(check (list bool)) "first max_inflight admitted, rest shed"
    [ false; false; true; true ] (List.map shed replies);
  Alcotest.(check int) "shed counted" 2 (Daemon.error_stats daemon).Daemon.shed

let test_solve_text_guards () =
  let daemon =
    Daemon.create
      ~config:{ Daemon.default_config with Daemon.max_request_bytes = 64 }
      ()
  in
  (match Daemon.solve_text daemon ~id:"garbage" "\255\000 not an acg" with
  | Error (Proto.Error.Bad_request _) -> ()
  | _ -> Alcotest.fail "garbage bytes must be a bad_request");
  match Daemon.solve_text daemon ~id:"big" (String.make 100 'x') with
  | Error (Proto.Error.Bad_request _) -> ()
  | _ -> Alcotest.fail "oversized text must be a bad_request"

let test_cache_capacity_zero () =
  (* capacity 0 = caching disabled: add is a no-op, every lookup misses *)
  let c = Cache.create ~capacity:0 ~observe:Noc_obs.Obs.disabled () in
  let rng = Prng.create ~seed:19 in
  let a = Noc_oracle.Fuzz.gen_acg ~rng in
  let daemon = Daemon.create ~cache_capacity:0 () in
  let o1 = ok_exn (Daemon.solve daemon (Proto.Request.make ~budget:short_budget a)) in
  Cache.add c o1.Daemon.key (o1.Daemon.bytes, o1.Daemon.response);
  Alcotest.(check bool) "add is a no-op" true (Cache.find c o1.Daemon.key = None);
  Alcotest.(check int) "stays empty" 0 (Cache.stats c).Cache.size;
  let o2 = ok_exn (Daemon.solve daemon (Proto.Request.make ~budget:short_budget a)) in
  Alcotest.(check bool) "duplicate recomputed" true (o2.Daemon.status = Daemon.Miss);
  Alcotest.(check string) "still deterministic" o1.Daemon.bytes o2.Daemon.bytes;
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Cache.create: capacity must be >= 0") (fun () ->
      ignore (Cache.create ~capacity:(-1) ~observe:Noc_obs.Obs.disabled ()))

let test_cache_capacity_one () =
  let c = Cache.create ~capacity:1 ~observe:Noc_obs.Obs.disabled ()
  and resp o = (o.Daemon.bytes, o.Daemon.response) in
  let rng = Prng.create ~seed:20 in
  let daemon = Daemon.create () in
  let solve g = ok_exn (Daemon.solve daemon (Proto.Request.make ~budget:short_budget g)) in
  let oa = solve (Noc_oracle.Fuzz.gen_acg ~rng) in
  let ob = solve (Noc_oracle.Fuzz.gen_acg ~rng) in
  Cache.add c oa.Daemon.key (resp oa);
  Alcotest.(check bool) "a cached" true (Cache.find c oa.Daemon.key <> None);
  Cache.add c ob.Daemon.key (resp ob);
  Alcotest.(check bool) "b evicted a" true (Cache.find c oa.Daemon.key = None);
  Alcotest.(check bool) "b cached" true (Cache.find c ob.Daemon.key <> None);
  Alcotest.(check int) "bounded" 1 (Cache.stats c).Cache.size

let with_temp_file f =
  let path = Filename.temp_file "nocsynth-test" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
      f path)

let test_snapshot_roundtrip () =
  let rng = Prng.create ~seed:23 in
  let a = Noc_oracle.Fuzz.gen_acg ~rng and b = Noc_oracle.Fuzz.gen_acg ~rng in
  let d1 = Daemon.create () in
  let solve d g = ok_exn (Daemon.solve d (Proto.Request.make ~budget:short_budget g)) in
  let oa = solve d1 a and _ob = solve d1 b in
  with_temp_file (fun path ->
      Cache.snapshot (Daemon.cache d1) ~path;
      let d2 = Daemon.create () in
      (match Cache.restore (Daemon.cache d2) ~path with
      | Ok n -> Alcotest.(check int) "both entries restored" 2 n
      | Error (`Msg m) -> Alcotest.fail ("restore failed: " ^ m));
      (* a warm duplicate through the restored daemon hits byte-identically *)
      let oa' = solve d2 a in
      Alcotest.(check bool) "restored hit" true (oa'.Daemon.status = Daemon.Hit);
      Alcotest.(check string) "restored bytes identical" oa.Daemon.bytes oa'.Daemon.bytes;
      Alcotest.(check int) "restored size" 2 (Cache.stats (Daemon.cache d2)).Cache.size)

(* Property: a snapshot with any single byte flipped or any truncation is
   detected — restore reports an error, leaves the cache cold and never
   raises. *)
let qcheck_corrupt_snapshot_cold_start =
  QCheck.Test.make ~name:"corrupt snapshot -> clean cold start" ~count:40
    QCheck.(pair small_int small_int)
    (fun (seed, pos_seed) ->
      let rng = Prng.create ~seed:(seed + 7700) in
      let a = Noc_oracle.Fuzz.gen_acg ~rng in
      let d = Daemon.create () in
      let _ =
        match Daemon.solve d (Proto.Request.make ~budget:short_budget a) with
        | Ok o -> o
        | Error _ -> QCheck.assume_fail ()
      in
      with_temp_file (fun path ->
          Cache.snapshot (Daemon.cache d) ~path;
          let body = In_channel.with_open_bin path In_channel.input_all in
          let n = String.length body in
          let corrupt =
            if pos_seed mod 2 = 0 && n > 1 then
              (* truncate strictly short of the full file *)
              String.sub body 0 (1 + (pos_seed mod (n - 1)))
            else begin
              let bs = Bytes.of_string body in
              let i = pos_seed mod n in
              Bytes.set bs i (Char.chr ((Char.code (Bytes.get bs i) + 1) land 0xff));
              Bytes.to_string bs
            end
          in
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc corrupt);
          let fresh = Cache.create ~capacity:16 ~observe:Noc_obs.Obs.disabled () in
          match Cache.restore fresh ~path with
          | Ok _ -> false (* corruption must never restore silently *)
          | Error (`Msg _) -> (Cache.stats fresh).Cache.size = 0
          | exception _ -> false))

let test_restore_missing_file () =
  let c = Cache.create ~capacity:4 ~observe:Noc_obs.Obs.disabled () in
  (match Cache.restore c ~path:"/nonexistent/nocsynth.snap" with
  | Ok _ -> Alcotest.fail "missing snapshot cannot restore"
  | Error (`Msg _) -> ());
  Alcotest.(check int) "cold" 0 (Cache.stats c).Cache.size

let test_response_json_roundtrip () =
  let rng = Prng.create ~seed:27 in
  let a = Noc_oracle.Fuzz.gen_acg ~rng in
  let o = ok_exn (Daemon.solve (Daemon.create ()) (Proto.Request.make ~budget:short_budget a)) in
  match Proto.Response.of_string o.Daemon.bytes with
  | Error (`Msg m) -> Alcotest.fail ("response failed to parse back: " ^ m)
  | Ok r ->
      Alcotest.(check string) "wire round-trip is the identity" o.Daemon.bytes
        (Proto.Response.to_string r)

let test_run_loop_counts () =
  let rng = Prng.create ~seed:29 in
  let a = Noc_oracle.Fuzz.gen_acg ~rng in
  let acg_path = Filename.temp_file "nocsynth-test" ".acg" in
  let in_path = Filename.temp_file "nocsynth-test" ".in" in
  let out_path = Filename.temp_file "nocsynth-test" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ acg_path; in_path; out_path ])
    (fun () ->
      Out_channel.with_open_bin acg_path (fun oc ->
          Out_channel.output_string oc (Noc_core.Acg_io.to_string a));
      Out_channel.with_open_bin in_path (fun oc ->
          Out_channel.output_string oc
            (String.concat "\n"
               [ acg_path; "# comment"; ""; "/nonexistent/path.acg"; acg_path; "quit";
                 acg_path ]));
      let daemon = Daemon.create () in
      let ls =
        In_channel.with_open_bin in_path (fun ic ->
            Out_channel.with_open_bin out_path (fun oc ->
                Daemon.run_loop ~budget:short_budget daemon ic oc))
      in
      (* every request line counted, comments/blanks skipped, quit stops
         the loop before the trailing request *)
      Alcotest.(check int) "served" 3 ls.Daemon.served;
      Alcotest.(check int) "ok" 2 ls.Daemon.ok;
      Alcotest.(check int) "errors" 1 ls.Daemon.errors;
      Alcotest.(check int) "shed" 0 ls.Daemon.shed;
      let lines =
        In_channel.with_open_bin out_path In_channel.input_all
        |> String.trim |> String.split_on_char '\n'
      in
      Alcotest.(check int) "one wire reply per request" 3 (List.length lines);
      List.iter
        (fun l ->
          match Noc_obs.Obs.Json.parse l with
          | Ok _ -> ()
          | Error (`Msg m) -> Alcotest.fail ("unparseable wire reply: " ^ m))
        lines)

let test_chaos_gate () =
  let stats = Chaos.run ~seed:7 ~requests:80 ~wf_timeout_s:0.05 () in
  (match Chaos.gate stats with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("chaos gate failed: " ^ m));
  Alcotest.(check int) "zero deaths" 0 stats.Chaos.deaths;
  Alcotest.(check int) "typed reply per request" stats.Chaos.requests
    stats.Chaos.replies

let test_replay_driver () =
  let s = Replay.run ~seed:5 ~cases:4 ~budget:short_budget () in
  Alcotest.(check int) "three requests per base" 12 s.Replay.requests;
  Alcotest.(check int) "misses = unique keys" s.Replay.unique s.Replay.misses;
  Alcotest.(check (float 1e-9)) "repeated half always hits" 1.0
    s.Replay.repeated_hit_rate;
  Alcotest.(check bool) "hits byte-identical" true s.Replay.byte_identical;
  Alcotest.(check int) "nothing evicted" 0 s.Replay.evictions;
  Alcotest.(check bool) "throughput measured" true (s.Replay.rps > 0.0)

let test_replay_deterministic_responses () =
  (* same seed, fresh daemons: the response byte streams must agree *)
  let run () = Replay.run ~seed:13 ~cases:3 ~budget:short_budget () in
  let a = run () and b = run () in
  Alcotest.(check int) "unique" a.Replay.unique b.Replay.unique;
  Alcotest.(check int) "hits" a.Replay.hits b.Replay.hits;
  Alcotest.(check bool) "both byte-identical" true
    (a.Replay.byte_identical && b.Replay.byte_identical)

(* Test: the canonical labeling is pinned.  One MD5 per family over every
   member's canonical hash and canonical-form edge listing, taken from the
   labeler without automorphism pruning.  Pruning must keep the least
   certificate, so neither the key nor the relabeled ACG may move; a
   labeler that stays invariant but settles on another certificate fails
   here.  (Both depend on the certificate alone, not on which leaf
   reached it.)  Every pinned input is one that labeler answered
   [canon:] within its budget, so none may fall back to [exact:]. *)
let pin_variants g =
  [ (fun ~rng:_ -> Acg.uniform ~volume:64 ~bandwidth:0.1 g); with_volumes ~k:2 g ]

let pin_families () =
  let module Corpus = Noc_benchkit.Corpus in
  let corpus = List.map (fun s -> s.Corpus.acg) (Corpus.default ()) in
  (* serve-hot's bases, by the benchmark's recipe *)
  let rec fuzz seed acc =
    if List.length acc = 18 then List.rev acc
    else
      let acg = Noc_oracle.Fuzz.gen_acg ~rng:(Prng.create ~seed) in
      fuzz (seed + 1) (if Acg.num_flows acg > 0 then acg :: acc else acc)
  in
  let hot =
    corpus
    @ fuzz 1 []
    @ [
        Corpus.random ~seed:2 ~n:32;
        Corpus.clustered ~seed:3 ~n:32;
        Corpus.clustered ~seed:4 ~n:32;
      ]
  in
  let scale =
    [
      Corpus.layered ~seed:1 ~n:128;
      Corpus.random ~seed:1 ~n:128;
      Corpus.clustered ~seed:1 ~n:96;
    ]
  in
  let symmetric =
    [
      G.hypercube 3;
      G.hypercube 4;
      G.torus ~rows:4 ~cols:4;
      G.torus ~rows:3 ~cols:5;
      G.bidirectional_ring 12;
      G.bidirectional_ring 32;
      G.knodel 8;
      G.knodel 16;
      G.mesh ~rows:4 ~cols:4;
      G.complete 6;
    ]
    |> List.mapi (fun i g ->
           List.concat
             (List.mapi
                (fun j make ->
                  let rng = Prng.create ~seed:((10 * i) + j + 1) in
                  let acg = make ~rng in
                  List.init 3 (fun _ -> Replay.permute ~rng acg))
                (pin_variants g)))
    |> List.concat
  in
  [ ("corpus", corpus); ("serve-hot", hot); ("scale", scale); ("symmetric", symmetric) ]

let pinned_labelings =
  [
    ("corpus", "05c6b39f1e3a100360463c4ab783ef22");
    ("serve-hot", "3118a7802df404b4e6c3500958232d0d");
    ("scale", "c5badc2b9f58fd849d8471c63b61cbbb");
    ("symmetric", "ed8cbf9c7206c8333853ff14a343dd5e");
  ]

let test_labeling_pinned () =
  let got =
    List.map
      (fun (family, acgs) ->
        let part acg =
          let l = Acg.canonical_labeling acg in
          let hash = Acg.hash_of_labeling l in
          if not (is_canon hash) then
            Alcotest.failf "%s: a pinned input fell back to %s" family hash;
          match Acg.form_of_labeling l with
          | Some (form, _) -> hash ^ "\n" ^ Noc_core.Acg_io.to_string form
          | None -> assert false
        in
        (family, Digest.to_hex (Digest.string (String.concat "\n" (List.map part acgs)))))
      (pin_families ())
  in
  List.iter (fun (f, d) -> Printf.printf "    (%S, %S);\n" f d) got;
  Alcotest.(check (list (pair string string))) "digests" pinned_labelings got

(* Test: symmetric graphs past the unpruned search's budget label
   [canon:], so their relabelings share one cache key: the 5-cube, the
   9-vertex out-star, K24 and the rook's graph beside the Shrikhande
   graph, all with uniform attributes. *)
let test_symmetric_graphs_share_a_key () =
  let rook, shrikhande = rook_and_shrikhande () in
  List.iter
    (fun (name, g) ->
      let rng = Prng.create ~seed:5 in
      let acg = Acg.uniform ~volume:64 ~bandwidth:0.1 g in
      let h = Acg.canonical_hash acg in
      Alcotest.(check bool) (name ^ " labels canon:") true (is_canon h);
      Alcotest.(check string) (name ^ " relabeled") h
        (Acg.canonical_hash (Replay.permute ~rng acg)))
    [
      ("hypercube 5", G.hypercube 5);
      ("star 9", G.star 9);
      ("complete 24", G.complete 24);
      ("rook + shrikhande", disjoint [ rook; shrikhande ]);
    ]

(* -------------------------------------------------------------------- *)
(* Backend scoring                                                       *)

module Syn = Noc_core.Synthesis
module Backends = Noc_serve.Backends

(* The sparse-Hamming architecture that [Backends.compare_all] scores,
   built: node (r, c) is core [r * cols + c + 1] on the [Syn.mesh_dims]
   grid (row-major, 1-based, as in [Syn.mesh]), linked to the nodes at
   power-of-two column offsets in its row and power-of-two row offsets in
   its column.  Routes fix the column first, then the row, each step the
   largest power of two toward the target coordinate. *)
let sparse_hamming acg =
  let rows, cols = Syn.mesh_dims acg in
  let node r c = (r * cols) + c + 1 in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let k = ref 1 in
      while c + !k < cols do
        edges := (node r c, node r (c + !k)) :: !edges;
        k := !k * 2
      done;
      let k = ref 1 in
      while r + !k < rows do
        edges := (node r c, node (r + !k) c) :: !edges;
        k := !k * 2
      done
    done
  done;
  let topology = D.of_edges !edges in
  let rec steps_toward cur target acc =
    if cur = target then List.rev acc
    else
      let delta = target - cur in
      let mag = abs delta in
      let step = ref 1 in
      while !step * 2 <= mag do
        step := !step * 2
      done;
      let next = if delta > 0 then cur + !step else cur - !step in
      steps_toward next target (next :: acc)
  in
  let route src dst =
    let rs = (src - 1) / cols and cs = (src - 1) mod cols in
    let rd = (dst - 1) / cols and cd = (dst - 1) mod cols in
    let row_fixed = List.map (fun c -> node rs c) (steps_toward cs cd []) in
    let col_fixed = List.map (fun r -> node r cd) (steps_toward rs rd []) in
    (src :: row_fixed) @ col_fixed
  in
  let routes =
    D.fold_edges
      (fun u v acc -> D.Edge_map.add (u, v) (route u v) acc)
      (Acg.graph acg) D.Edge_map.empty
  in
  Syn.make ~topology ~routes

(* the reference: build each architecture, then score it with
   [Synthesis] over [Floorplan.grid] *)
let built_scores acg ~custom =
  let tech = Noc_energy.Technology.cmos_180nm in
  let rows, cols = Syn.mesh_dims acg in
  let fp =
    Noc_energy.Floorplan.(grid ~cols (uniform_cores ~n:(rows * cols) ~size_mm:2.0))
  in
  let score backend arch =
    {
      Proto.Response.backend;
      links = Syn.link_count arch;
      avg_hops = Syn.avg_hops acg arch;
      max_hops = Syn.max_hops arch;
      energy_pj = Syn.total_energy ~tech ~fp acg arch;
    }
  in
  [
    score "custom" custom;
    score "mesh" (Syn.mesh ~rows ~cols acg);
    score "sparse_hamming" (sparse_hamming acg);
  ]

(* equal bit for bit *)
let same_scores =
  let bits = Int64.bits_of_float in
  List.equal (fun (a : Proto.Response.backend_score) (b : Proto.Response.backend_score) ->
      String.equal a.backend b.backend
      && a.links = b.links && a.max_hops = b.max_hops
      && Int64.equal (bits a.avg_hops) (bits b.avg_hops)
      && Int64.equal (bits a.energy_pj) (bits b.energy_pj))

let custom_of ?(max_nodes = 2_000) acg =
  let budget = Bb.Budget.(default |> with_max_nodes max_nodes) in
  let d, _ = Bb.decompose ~budget ~library:(Noc_primitives.Library.default ()) acg in
  Syn.custom acg d

let scores_match acg =
  let custom = custom_of acg in
  same_scores (Backends.compare_all acg ~custom) (built_scores acg ~custom)

(* ACGs on cores drawn from [1 .. top] with gaps, some of them isolated,
   and some flows without a volume entry (those count 1).  [top] runs
   from 1 to 40, so one core, zero flows and largest ids that are not
   squares all turn up. *)
let gappy_acg ~rng =
  let top = Prng.int_in rng 1 40 in
  let cores =
    List.filter (fun v -> v = top || Prng.int rng 3 > 0) (List.init top (fun i -> i + 1))
  in
  let p = Prng.float rng 0.3 in
  let flows =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun v -> if u <> v && Prng.bernoulli rng p then Some (u, v) else None)
          cores)
      cores
  in
  let volume =
    List.fold_left
      (fun m e -> if Prng.int rng 4 = 0 then m else D.Edge_map.add e (1 + Prng.int rng 500) m)
      D.Edge_map.empty flows
  in
  Acg.make ~graph:(D.of_edges ~vertices:cores flows) ~volume ()

(* Property: scoring by walking grid coordinates gives the scores of the
   built architectures, bit for bit. *)
let qcheck_backends_match_built =
  QCheck.Test.make ~name:"backend scores equal the built architectures' scores"
    ~count:200 QCheck.small_int
    (fun seed -> scores_match (gappy_acg ~rng:(Prng.create ~seed:(seed + 8800))))

(* Test: the same on the corpus, and on the synth-cold families by the
   benchmark's recipe, canonicalized as the daemon searches them *)
let test_backends_match_built_on_families () =
  let module Corpus = Noc_benchkit.Corpus in
  let family gen sizes =
    List.concat_map (fun (n, k) -> List.init k (fun i -> gen ~seed:(i + 1) ~n)) sizes
  in
  let heavy = Corpus.clustered ~seed:1 ~n:96 in
  let scaled k =
    Acg.make ~graph:heavy.Acg.graph
      ~volume:(D.Edge_map.map (( * ) k) heavy.Acg.volume)
      ~bandwidth:heavy.Acg.bandwidth ()
  in
  let cold =
    family Corpus.layered [ (32, 24); (48, 24); (64, 20); (96, 8); (128, 8) ]
    @ family Corpus.random [ (32, 24); (48, 24); (64, 20); (96, 8); (128, 8) ]
    @ family Corpus.clustered [ (32, 5); (48, 16); (64, 8) ]
    @ List.map scaled [ 1; 2; 3 ]
  in
  let canonical acg = Option.fold ~none:acg ~some:fst (Acg.canonical_form acg) in
  List.iteri
    (fun i acg ->
      if not (scores_match acg) then Alcotest.failf "input %d: scores differ" i)
    (List.map (fun s -> s.Corpus.acg) (Corpus.default ()) @ List.map canonical cold)

(* Test: a core id below 1 has no grid cell, flowing or isolated *)
let test_backends_reject_core_below_one () =
  List.iter
    (fun (name, graph, message) ->
      let acg = Acg.uniform ~volume:8 ~bandwidth:0.1 graph in
      let custom =
        Syn.custom acg { Noc_core.Decomposition.matchings = []; remainder = graph }
      in
      Alcotest.check_raises name (Invalid_argument message) (fun () ->
          ignore (Backends.compare_all acg ~custom)))
    [
      ( "flow from core 0",
        D.of_edges [ (0, 1); (1, 2) ],
        "Backends.compare_all: core 0 outside 1x2 grid" );
      ( "isolated core 0",
        D.of_edges ~vertices:[ 0 ] [ (1, 2) ],
        "Backends.compare_all: core 0 outside 1x2 grid" );
      ( "flow into core -3",
        D.of_edges [ (5, -3) ],
        "Backends.compare_all: core -3 outside 2x3 grid" );
    ]

(* The service budget clamp, under the 2 s cap the chaos harness runs
   with: a request declaring 5 s, a relabeled copy declaring 9 s and one
   declaring no deadline all run under 2 s, so they share one cache key
   and the two hits replay the miss's bytes.  The clamp leaves the node
   budget and the domain count alone. *)
let test_budget_clamp () =
  let rng = Prng.create ~seed:29 in
  let a = Noc_oracle.Fuzz.gen_acg ~rng in
  let config = { Daemon.default_config with Daemon.max_timeout_s = Some 2.0 } in
  let daemon = Daemon.create ~config () in
  let solve acg timeout_s =
    let budget = Bb.Budget.(default |> with_timeout_s timeout_s) in
    ok_exn (Daemon.solve daemon (Proto.Request.make ~budget acg))
  in
  let miss = solve a (Some 5.0) in
  let hits = [ solve (Replay.permute ~rng a) (Some 9.0); solve a None ] in
  Alcotest.(check bool) "first misses" true (miss.Daemon.status = Daemon.Miss);
  List.iter
    (fun (o : Daemon.outcome) ->
      Alcotest.(check bool) "hit" true (o.Daemon.status = Daemon.Hit);
      Alcotest.(check string) "one key" miss.Daemon.key o.Daemon.key;
      Alcotest.(check string) "hit bytes = miss bytes" miss.Daemon.bytes o.Daemon.bytes)
    hits;
  let c = Daemon.cache_stats daemon in
  Alcotest.(check (pair int int)) "1 miss, 2 hits" (1, 2)
    (c.Noc_serve.Cache.misses, c.Noc_serve.Cache.hits);
  Alcotest.(check (option (float 0.0))) "provenance deadline is the cap" (Some 2.0)
    miss.Daemon.response.Proto.Response.provenance.Proto.Response.budget_timeout_s;
  let clamped =
    Bb.Budget.(
      clamp_service ~max_timeout_s:2.0
        (default |> with_timeout_s (Some 5.0) |> with_max_nodes 77 |> with_domains 3))
  in
  Alcotest.(check (option (float 0.0)))
    "deadline clamped" (Some 2.0) clamped.Bb.Budget.timeout_s;
  Alcotest.(check int) "max_nodes unchanged" 77 clamped.Bb.Budget.max_nodes;
  Alcotest.(check int) "domains unchanged" 3 clamped.Bb.Budget.domains

let suite =
  ( "serve",
    [
      QCheck_alcotest.to_alcotest qcheck_hash_permutation_invariant;
      QCheck_alcotest.to_alcotest qcheck_hash_decides_isomorphism;
      QCheck_alcotest.to_alcotest qcheck_batch_matches_solo;
      Alcotest.test_case "batch dedup" `Quick test_batch_dedup;
      Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
      Alcotest.test_case "domains excluded from cache key" `Quick
        test_domains_not_in_key;
      Alcotest.test_case "unknown library rejected" `Quick test_bad_request;
      Alcotest.test_case "dead deadline is over_budget" `Quick test_over_budget;
      Alcotest.test_case "oversized ACG rejected" `Quick test_oversized_rejected;
      Alcotest.test_case "injected fault isolated" `Quick test_injected_fault_isolated;
      Alcotest.test_case "batch shedding" `Quick test_batch_shedding;
      Alcotest.test_case "solve_text guards" `Quick test_solve_text_guards;
      Alcotest.test_case "cache capacity 0" `Quick test_cache_capacity_zero;
      Alcotest.test_case "cache capacity 1" `Quick test_cache_capacity_one;
      Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_corrupt_snapshot_cold_start;
      Alcotest.test_case "restore missing file" `Quick test_restore_missing_file;
      Alcotest.test_case "response JSON round-trip" `Quick
        test_response_json_roundtrip;
      Alcotest.test_case "run_loop counts every reply" `Quick test_run_loop_counts;
      Alcotest.test_case "chaos gate" `Quick test_chaos_gate;
      Alcotest.test_case "replay driver" `Quick test_replay_driver;
      Alcotest.test_case "replay deterministic" `Quick
        test_replay_deterministic_responses;
      Alcotest.test_case "constrained search is domain-invariant" `Quick
        test_domains_invariant_with_constraints;
      Alcotest.test_case "canonical labeling is pinned" `Quick test_labeling_pinned;
      QCheck_alcotest.to_alcotest qcheck_hash_invariant_when_refinement_stalls;
      Alcotest.test_case "symmetric graphs share a key" `Quick
        test_symmetric_graphs_share_a_key;
      QCheck_alcotest.to_alcotest qcheck_backends_match_built;
      Alcotest.test_case "backend scores equal the built ones on the families" `Quick
        test_backends_match_built_on_families;
      Alcotest.test_case "backend scoring rejects a core below 1" `Quick
        test_backends_reject_core_below_one;
      Alcotest.test_case "service clamp caps every deadline" `Quick test_budget_clamp;
    ] )
