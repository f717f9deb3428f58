module D = Noc_graph.Digraph
module Acg = Noc_core.Acg
module Bb = Noc_core.Branch_bound
module Prng = Noc_util.Prng

type stats = {
  requests : int;
  unique : int;
  hits : int;
  misses : int;
  evictions : int;
  wall_s : float;
  rps : float;
  hit_rate : float;
  repeated_hit_rate : float;
  byte_identical : bool;
}

(* a uniformly random relabeling of the ACG's own core ids (Fisher-Yates
   over the sorted vertex list) *)
let permute ~rng acg =
  let verts =
    D.fold_vertices (fun v acc -> v :: acc) (Acg.graph acg) [] |> List.sort compare
  in
  let arr = Array.of_list verts in
  Prng.shuffle rng arr;
  let map = Hashtbl.create (Array.length arr) in
  List.iteri (fun i v -> Hashtbl.replace map v arr.(i)) verts;
  Acg.map_vertices (fun v -> Hashtbl.find map v) acg

let corpus_bases dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names |> List.sort compare
      |> List.filter_map (fun name ->
             let path = Filename.concat dir name in
             if Sys.is_directory path then None
             else
               match Noc_core.Acg_io.load path with
               | Ok acg -> Some acg
               | Error _ -> None)

let run ?(seed = 42) ?(cases = 12) ?corpus_dir ?cache_capacity ?library
    ?(budget = Bb.Budget.(default |> with_timeout_s (Some 2.0))) ?observe () =
  let rng = Prng.create ~seed in
  let bases =
    let loaded =
      match corpus_dir with Some dir -> corpus_bases dir | None -> []
    in
    if loaded <> [] then loaded
    else List.init cases (fun _ -> Noc_oracle.Fuzz.gen_acg ~rng)
  in
  (* per base: fresh, exact duplicate, vertex-permuted copy.  [repeated]
     marks the latter two — the half the acceptance gate measures. *)
  let stream =
    List.concat_map
      (fun acg ->
        [ (acg, false); (acg, true); (permute ~rng acg, true) ])
      bases
  in
  let daemon = Daemon.create ?cache_capacity ?observe () in
  let first_bytes : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let results, wall_s =
    Noc_util.Timer.time (fun () ->
        List.map
          (fun (acg, repeated) ->
            let o = Daemon.solve_exn daemon (Proto.Request.make ?library ~budget acg) in
            (o, repeated))
          stream)
  in
  let byte_identical =
    List.for_all
      (fun ((o : Daemon.outcome), _) ->
        match o.Daemon.status with
        | Daemon.Miss ->
            if not (Hashtbl.mem first_bytes o.Daemon.key) then
              Hashtbl.replace first_bytes o.Daemon.key o.Daemon.bytes;
            true
        | Daemon.Hit -> (
            match Hashtbl.find_opt first_bytes o.Daemon.key with
            | Some bytes -> String.equal bytes o.Daemon.bytes
            | None -> false))
      results
  in
  let c = Daemon.cache_stats daemon in
  let requests = List.length results in
  let repeated = List.filter (fun (_, r) -> r) results in
  let repeated_hits =
    List.length (List.filter (fun ((o : Daemon.outcome), _) -> o.Daemon.status = Daemon.Hit) repeated)
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  {
    requests;
    unique = Hashtbl.length first_bytes;
    hits = c.Cache.hits;
    misses = c.Cache.misses;
    evictions = c.Cache.evictions;
    wall_s;
    rps = (if wall_s > 0.0 then float_of_int requests /. wall_s else 0.0);
    hit_rate = ratio c.Cache.hits requests;
    repeated_hit_rate = ratio repeated_hits (List.length repeated);
    byte_identical;
  }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>replay: %d requests (%d unique) in %.3f s = %.1f req/s@ cache: %d hits / %d \
     misses / %d evictions (hit rate %.2f, repeated-half %.2f)@ hits byte-identical: \
     %b@]"
    s.requests s.unique s.wall_s s.rps s.hits s.misses s.evictions s.hit_rate
    s.repeated_hit_rate s.byte_identical
