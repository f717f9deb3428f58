module D = Noc_graph.Digraph
module Edge_map = D.Edge_map

type report = {
  cdg_cycle : (int * int) list option;
  vcs_needed : int;
}

let route_channels path =
  let rec chans = function
    | a :: (b :: _ as rest) -> (a, b) :: chans rest
    | [ _ ] | [] -> []
  in
  chans path

let consecutive_channel_pairs path =
  let rec pairs = function
    | c1 :: (c2 :: _ as rest) -> (c1, c2) :: pairs rest
    | [ _ ] | [] -> []
  in
  pairs (route_channels path)

let channel_dependency_graph (arch : Synthesis.t) =
  let seen = Hashtbl.create 64 in
  Edge_map.fold
    (fun _ path acc ->
      List.fold_left
        (fun acc dep ->
          if Hashtbl.mem seen dep then acc
          else begin
            Hashtbl.replace seen dep true;
            dep :: acc
          end)
        acc
        (consecutive_channel_pairs path))
    arch.Synthesis.routes []
  |> List.rev

(* The increasing-channel-order discipline: a packet starts on VC 0 and
   moves to the next VC whenever the channel order does not increase. *)
let route_vcs ?(num_vcs = max_int) path =
  if num_vcs < 1 then invalid_arg "Deadlock.route_vcs: num_vcs must be >= 1";
  let chans = Array.of_list (route_channels path) in
  let vcs = Array.make (Array.length chans) 0 in
  let vc = ref 0 in
  for i = 1 to Array.length chans - 1 do
    if D.Edge.compare chans.(i) chans.(i - 1) <= 0 then incr vc;
    vcs.(i) <- min !vc (num_vcs - 1)
  done;
  vcs

(* order inversions along a route: the last channel's uncapped VC *)
let inversions path =
  let vcs = route_vcs path in
  let n = Array.length vcs in
  if n = 0 then 0 else vcs.(n - 1)

let analyze (arch : Synthesis.t) =
  (* build the CDG as a digraph over channel ids *)
  let chan_id = Hashtbl.create 64 in
  let id_chan = Hashtbl.create 64 in
  let next = ref 1 in
  let intern c =
    match Hashtbl.find_opt chan_id c with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.replace chan_id c i;
        Hashtbl.replace id_chan i c;
        i
  in
  let deps = channel_dependency_graph arch in
  let cdg =
    List.fold_left
      (fun g (c1, c2) -> D.add_edge g (intern c1) (intern c2))
      D.empty deps
  in
  let cdg_cycle =
    match Noc_graph.Traversal.find_cycle cdg with
    | Some ids -> Some (List.map (Hashtbl.find id_chan) ids)
    | None -> None
  in
  (* without any CDG cycle a single channel class suffices regardless of
     inversions *)
  let vcs_needed =
    if cdg_cycle = None then 1
    else
      1 + Edge_map.fold (fun _ path acc -> max acc (inversions path)) arch.Synthesis.routes 0
  in
  { cdg_cycle; vcs_needed }

let is_deadlock_free arch = (analyze arch).cdg_cycle = None

let vc_of_hop (arch : Synthesis.t) ~src ~dst ~hop =
  match Synthesis.route arch ~src ~dst with
  | None -> None
  | Some path ->
      let vcs = route_vcs path in
      if hop < 0 || hop >= Array.length vcs then None else Some vcs.(hop)
