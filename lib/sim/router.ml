type in_key = Local | From of int
type out_key = Eject | To of int

type flit = {
  packet : Packet.t;
  plan : voq array;
  idx : int;
  mutable hop : int;
  mutable ready_at : int;
}

and voq = { input : in_key; vc : int; q : flit Queue.t; credits : Credit.t; queued : int ref }

type port = {
  dest : out_key;
  voqs : voq array;
  mutable rr : int;
  queued : int ref;
  mutable wire : flit;
}

type t = { node : int; ni : flit Queue.t; outputs : port array }

let idle =
  let packet =
    { Packet.id = -1; src = -1; dst = -1; size_flits = 0; tag = 0; payload = Bytes.empty;
      route = [||]; injected_at = 0 }
  in
  { packet; plan = [||]; idx = 0; hop = 0; ready_at = 0 }

let create ~node ~preds ~succs ~depth ~num_vcs =
  let inputs = Array.of_list (List.map (fun u -> From u) (List.sort_uniq compare preds)) in
  let succs = Array.of_list (List.sort_uniq compare succs) in
  (* queue [k] of a port: [Local] for [k = 0], then every link input's
     [num_vcs] lanes in turn *)
  let voq queued k =
    let input = if k = 0 then Local else inputs.((k - 1) / num_vcs) in
    let vc = if k = 0 then 0 else (k - 1) mod num_vcs in
    { input; vc; q = Queue.create (); credits = Credit.create ~capacity:depth; queued }
  in
  let port dest =
    let queued = ref 0 in
    let voqs = Array.init (1 + (Array.length inputs * num_vcs)) (voq queued) in
    { dest; voqs; rr = 0; queued; wire = idle }
  in
  let dest k = if k = 0 then Eject else To succs.(k - 1) in
  let outputs = Array.init (1 + Array.length succs) (fun k -> port (dest k)) in
  { node; ni = Queue.create (); outputs }

let clear t =
  Queue.clear t.ni;
  Array.iter
    (fun p ->
      p.rr <- 0;
      p.queued := 0;
      p.wire <- idle;
      Array.iter
        (fun voq ->
          Queue.clear voq.q;
          Credit.refill voq.credits)
        p.voqs)
    t.outputs

let port t dest =
  let n = Array.length t.outputs in
  let rec go i = if i = n then raise Not_found
    else if t.outputs.(i).dest = dest then t.outputs.(i) else go (i + 1)
  in
  go 0

let find_voq t ~input ~output ~vc =
  let p = port t output in
  let n = Array.length p.voqs in
  let rec go i = if i = n then raise Not_found
    else if p.voqs.(i).input = input && p.voqs.(i).vc = vc then p.voqs.(i) else go (i + 1)
  in
  go 0
