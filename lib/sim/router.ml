type flit = { packet : Packet.t; lanes : int array; idx : int; mutable hop : int }
type in_key = Local | From of int
type out_key = Eject | To of int
type entry = { flit : flit; mutable ready_at : int }

type voq = { input : in_key; output : out_key; vc : int; q : entry Queue.t; credits : Credit.t }

type port = {
  dest : out_key;
  voqs : voq array;
  mutable rr : int;
  mutable busy_until : int;
  mutable in_flight : (flit * int) option;
}

type t = { node : int; ni : entry Queue.t; outputs : port array }

let create ~node ~preds ~succs ~depth ~num_vcs =
  let inputs = Local :: List.map (fun u -> From u) (List.sort_uniq compare preds) in
  let dests = Eject :: List.map (fun v -> To v) (List.sort_uniq compare succs) in
  let lanes input = if input = Local then [ 0 ] else List.init num_vcs Fun.id in
  let outputs =
    Array.of_list
      (List.map
         (fun dest ->
           let voqs =
             Array.of_list
               (List.concat_map
                  (fun input ->
                    List.map
                      (fun vc ->
                        let credits = Credit.create ~capacity:depth in
                        { input; output = dest; vc; q = Queue.create (); credits })
                      (lanes input))
                  inputs)
           in
           { dest; voqs; rr = 0; busy_until = 0; in_flight = None })
         dests)
  in
  { node; ni = Queue.create (); outputs }

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

let arbitrate p eligible =
  let n = Array.length p.voqs in
  if n = 0 then None
  else begin
    let rec go k =
      if k = n then None
      else
        let i = (p.rr + k) mod n in
        let voq = p.voqs.(i) in
        if eligible voq then begin
          p.rr <- (i + 1) mod n;
          Some voq
        end
        else go (k + 1)
    in
    go 0
  end

let buffered t =
  Array.fold_left
    (fun acc p -> Array.fold_left (fun acc voq -> acc + Queue.length voq.q) acc p.voqs)
    0 t.outputs

let ni_buffered t = Queue.length t.ni
