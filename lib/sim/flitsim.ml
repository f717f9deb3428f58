module D = Noc_graph.Digraph
module Edge_map = D.Edge_map
module Vmap = D.Vmap
module Syn = Noc_core.Synthesis

type config = {
  fifo_depth : int;
  flit_bits : int;
  phit_bits : int;
  router_delay : int;
  num_vcs : int;
}

let default_config =
  { fifo_depth = 4; flit_bits = 32; phit_bits = 8; router_delay = 1; num_vcs = 1 }

let phits_per_flit cfg = (cfg.flit_bits + cfg.phit_bits - 1) / cfg.phit_bits

type policy = Fixed | Oblivious of Noc_util.Prng.t

type delivery = Packet.delivery = { packet : Packet.t; delivered_at : int }

(* A flow's route resolved once, on its first [inject]: the VOQ its flits
   occupy at each hop and the source NI they wait in.  The flow's packets
   share [route] and [plan]; under [Oblivious], the packets that drew one
   path share its plan.  [path] is the route as the architecture lists
   it: [reset] keeps the plan while the adopted architecture lists the
   same one. *)
type flow = {
  path : int list;
  route : int array;
  plan : Router.voq array;
  ni : Router.flit Queue.t;
}

(* Everything a run changes besides the fabric's queues.  [create] and
   [reset] both start from [fresh], so neither can miss a field. *)
type state = {
  link_count : int array array;
      (* [link_count.(i).(k)]: flits that arrived over output [k] of
         [routers.(i)]; slot 0, the ejection port, stays 0 *)
  switch_count : int array;  (* flits each router's switch moved *)
  mutable due : Credit.t array;  (* credits returning next cycle: [due.(0 .. ndue - 1)] *)
  mutable ndue : int;
  mutable cycle : int;
  mutable next_id : int;
  mutable injected_packets : int;
  mutable delivered_packets : int;
  mutable delivered_rev : delivery list;
  mutable drained : int;  (* deliveries already handed out by [drain_deliveries] *)
  mutable injected_flits : int;
  mutable delivered_flits : int;
  mutable ni_occupancy : int;
  mutable voq_occupancy : int;
  mutable wire_occupancy : int;
  mutable flit_hops : int;
  mutable buffer_flit_cycles : int;
  mutable moved : bool;
  mutable last_ready : int;
      (* latest switch-ready cycle ever assigned: while cycle < last_ready a
         flit may still be maturing in a router pipeline, so a motionless
         cycle is not yet proof of a fixpoint *)
}

let fresh routers =
  {
    link_count = Array.map (fun (r : Router.t) -> Array.make (Array.length r.Router.outputs) 0) routers;
    switch_count = Array.make (Array.length routers) 0;
    due = [||];
    ndue = 0;
    cycle = 0;
    next_id = 0;
    injected_packets = 0;
    delivered_packets = 0;
    delivered_rev = [];
    drained = 0;
    injected_flits = 0;
    delivered_flits = 0;
    ni_occupancy = 0;
    voq_occupancy = 0;
    wire_occupancy = 0;
    flit_hops = 0;
    buffer_flit_cycles = 0;
    moved = false;
    last_ready = 0;
  }

type t = {
  mutable arch : Syn.t;  (* the routes in force: [create]'s, then each [reset]'s *)
  cfg : config;
  policy : policy;
  ppf : int;
  routers : Router.t array;  (* ascending vertex id: the one scan order every phase uses *)
  index : (int, int) Hashtbl.t;  (* vertex -> position in [routers]; create and inject only *)
  flows : (int * int, flow) Hashtbl.t;
  paths : (int array, flow) Hashtbl.t;  (* [Oblivious]: one plan per drawn path *)
  dist : (int, int D.Vmap.t) Hashtbl.t;  (* [Oblivious]: hop distances to a destination *)
  mutable st : state;
}

let create ?(config = default_config) ?(policy = Fixed) arch =
  if config.fifo_depth < 1 then invalid_arg "Flitsim.create: fifo_depth must be >= 1";
  if config.flit_bits < 1 then invalid_arg "Flitsim.create: flit_bits must be >= 1";
  if config.phit_bits < 1 then invalid_arg "Flitsim.create: phit_bits must be >= 1";
  if config.router_delay < 1 then invalid_arg "Flitsim.create: router_delay must be >= 1";
  if config.num_vcs < 1 then invalid_arg "Flitsim.create: num_vcs must be >= 1";
  let topo = arch.Syn.topology in
  (* Routers for every topology vertex plus every route vertex: a zero-hop
     flow [v -> v] may name a core no link touches. *)
  let vset =
    Edge_map.fold
      (fun _ path acc -> List.fold_left (fun acc v -> D.Vset.add v acc) acc path)
      arch.Syn.routes (D.vertices topo)
  in
  let routers =
    Array.of_list
      (List.map
         (fun v ->
           let preds = if D.mem_vertex topo v then D.Vset.elements (D.pred topo v) else [] in
           let succs = if D.mem_vertex topo v then D.Vset.elements (D.succ topo v) else [] in
           let depth = config.fifo_depth and num_vcs = config.num_vcs in
           Router.create ~node:v ~preds ~succs ~depth ~num_vcs)
         (D.Vset.elements vset))
  in
  let index = Hashtbl.create (Array.length routers) in
  Array.iteri (fun i (r : Router.t) -> Hashtbl.replace index r.Router.node i) routers;
  {
    arch;
    cfg = config;
    policy;
    ppf = phits_per_flit config;
    routers;
    index;
    flows = Hashtbl.create 16;
    paths = Hashtbl.create 16;
    dist = Hashtbl.create 16;
    st = fresh routers;
  }

(* A plan depends only on its path and lanes, so a kept one is exactly
   what a fresh engine on [arch] would resolve; the routers, ports and
   queues [arch] no longer uses stay empty and are never granted. *)
let reset t arch =
  Array.iter Router.clear t.routers;
  t.st <- fresh t.routers;
  t.arch <- arch;
  Hashtbl.filter_map_inplace
    (fun (src, dst) fl ->
      match Syn.route arch ~src ~dst with
      | Some path when path == fl.path || List.equal Int.equal path fl.path -> Some fl
      | Some _ | None -> None)
    t.flows;
  Hashtbl.clear t.dist

let now t = t.st.cycle
let config t = t.cfg
let arch t = t.arch
let router t v = t.routers.(Hashtbl.find t.index v)

(* The hop plan of a path: the VOQ at [route.(h)] a flit waits in at hop
   [h], in the lane of the virtual channel its packet holds on the link it
   arrived over. *)
let plan_of t path =
  let route = Array.of_list path in
  let lanes = Noc_core.Deadlock.route_vcs ~num_vcs:t.cfg.num_vcs path in
  let last = Array.length route - 1 in
  match
    Array.mapi
      (fun h v ->
        let output = if h = last then Router.Eject else Router.To route.(h + 1) in
        if h = 0 then Router.find_voq (router t v) ~input:Router.Local ~output ~vc:0
        else
          Router.find_voq (router t v) ~input:(Router.From route.(h - 1)) ~output
            ~vc:lanes.(h - 1))
      route
  with
  | plan -> { path; route; plan; ni = (router t route.(0)).Router.ni }
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Flitsim.inject: route %s crosses a link the engine lacks"
           (String.concat "-" (List.map string_of_int path)))

let route_exn t ~src ~dst =
  match Syn.route t.arch ~src ~dst with
  | None -> invalid_arg (Printf.sprintf "Flitsim.inject: no route %d -> %d" src dst)
  | Some path -> path

let flow t ~src ~dst =
  match Hashtbl.find_opt t.flows (src, dst) with
  | Some fl -> fl
  | None ->
      let fl = plan_of t (route_exn t ~src ~dst) in
      Hashtbl.replace t.flows (src, dst) fl;
      fl

(* [Oblivious]: a minimal path drawn hop by hop, uniformly among the
   neighbours one hop closer to [dst] (in id order), then its plan. *)
let oblivious_flow t rng ~src ~dst =
  ignore (route_exn t ~src ~dst);
  let topo = t.arch.Syn.topology in
  let dist =
    lazy
      (match Hashtbl.find_opt t.dist dst with
      | Some m -> m
      | None ->
          let m = Noc_graph.Traversal.bfs_distances (D.reverse topo) dst in
          Hashtbl.replace t.dist dst m;
          m)
  in
  let rec walk v acc =
    if v = dst then List.rev (v :: acc)
    else
      let dist = Lazy.force dist in
      let here = D.Vmap.find v dist in
      let closer =
        D.Vset.elements (D.succ topo v)
        |> List.filter (fun n -> D.Vmap.find_opt n dist = Some (here - 1))
      in
      walk (List.nth closer (Noc_util.Prng.int rng (List.length closer))) (v :: acc)
  in
  let path = walk src [] in
  let key = Array.of_list path in
  match Hashtbl.find_opt t.paths key with
  | Some fl -> fl
  | None ->
      let fl = plan_of t path in
      Hashtbl.replace t.paths key fl;
      fl

let inject ?(tag = 0) ?(payload = Bytes.empty) ?(size_flits = 1) t ~src ~dst =
  if size_flits < 1 then invalid_arg "Flitsim.inject: size_flits must be >= 1";
  let fl =
    match t.policy with
    | Fixed -> flow t ~src ~dst
    | Oblivious rng -> oblivious_flow t rng ~src ~dst
  in
  let st = t.st in
  let id = st.next_id in
  st.next_id <- id + 1;
  let packet =
    { Packet.id; src; dst; size_flits; tag; payload; route = fl.route; injected_at = st.cycle }
  in
  for idx = 0 to size_flits - 1 do
    Queue.add { Router.packet; plan = fl.plan; idx; hop = 0; ready_at = st.cycle } fl.ni
  done;
  st.injected_packets <- st.injected_packets + 1;
  st.injected_flits <- st.injected_flits + size_flits;
  st.ni_occupancy <- st.ni_occupancy + size_flits;
  id

(* Buffers [f] in [voq] at cycle [c], switch-ready [router_delay] cycles
   later; that cycle grows with [c], so it is also the latest assigned. *)
let enqueue t st c (f : Router.flit) (voq : Router.voq) =
  f.Router.ready_at <- c + t.cfg.router_delay;
  st.last_ready <- f.Router.ready_at;
  Queue.add f voq.Router.q;
  incr voq.Router.queued;
  st.voq_occupancy <- st.voq_occupancy + 1;
  st.moved <- true

(* A freed slot's credit reaches the upstream sender next cycle.  The
   array grows to the most returns one cycle has seen, then stays. *)
let return_credit st cr =
  if st.ndue = Array.length st.due then begin
    let due = Array.make ((2 * st.ndue) + 8) cr in
    Array.blit st.due 0 due 0 st.ndue;
    st.due <- due
  end;
  st.due.(st.ndue) <- cr;
  st.ndue <- st.ndue + 1

(* The round-robin grant of ejection and link sends alike: scan [p]'s VOQs
   from just after the last grant for the first whose head flit is
   switch-ready and, on a [link] port, holds a credit for the queue it
   lands in downstream.  A grant pops that flit, returns its slot's credit
   upstream next cycle, counts a traversal of switch [sw] and moves the
   pointer past the winner; without a grant the pointer stays.  Returns
   [Router.idle] when nothing is granted. *)
let grant st c ~link ~sw (p : Router.port) =
  let voqs = p.Router.voqs in
  let n = Array.length voqs in
  let won = ref Router.idle and k = ref 0 in
  while !won == Router.idle && !k < n do
    let i = (p.Router.rr + !k) mod n in
    let voq = voqs.(i) in
    (if not (Queue.is_empty voq.Router.q) then
       let f = Queue.peek voq.Router.q in
       if
         f.Router.ready_at <= c
         && ((not link) || Credit.available f.Router.plan.(f.Router.hop + 1).Router.credits > 0)
       then begin
         ignore (Queue.take voq.Router.q);
         decr p.Router.queued;
         (match voq.Router.input with
         | Router.Local -> ()
         | Router.From _ -> return_credit st voq.Router.credits);
         p.Router.rr <- (i + 1) mod n;
         st.voq_occupancy <- st.voq_occupancy - 1;
         st.switch_count.(sw) <- st.switch_count.(sw) + 1;
         st.moved <- true;
         won := f
       end);
    incr k
  done;
  !won

(* Idle work is skipped, and exactly so: a port with no queued flit grants
   nothing and keeps its pointer, phase 2 has nothing to land while no flit
   is on a wire, and phase 5 nothing to inject while every NI is empty. *)
let step t =
  let st = t.st in
  st.cycle <- st.cycle + 1;
  let c = st.cycle in
  st.buffer_flit_cycles <- st.buffer_flit_cycles + st.voq_occupancy;
  st.moved <- false;
  (* phase 1: credit returns land *)
  for j = 0 to st.ndue - 1 do
    Credit.put st.due.(j)
  done;
  st.ndue <- 0;
  (* phase 2: link arrivals enter downstream VOQs *)
  if st.wire_occupancy > 0 then
    for i = 0 to Array.length t.routers - 1 do
      let outputs = t.routers.(i).Router.outputs in
      for k = 1 to Array.length outputs - 1 do
        let p = outputs.(k) in
        let f = p.Router.wire in
        if f != Router.idle && f.Router.ready_at <= c then begin
          p.Router.wire <- Router.idle;
          f.Router.hop <- f.Router.hop + 1;
          enqueue t st c f f.Router.plan.(f.Router.hop);
          st.wire_occupancy <- st.wire_occupancy - 1;
          st.flit_hops <- st.flit_hops + 1;
          st.link_count.(i).(k) <- st.link_count.(i).(k) + 1
        end
      done
    done;
  (* phase 3: ejection, one flit per sink per cycle *)
  for i = 0 to Array.length t.routers - 1 do
    let p = t.routers.(i).Router.outputs.(0) in
    if !(p.Router.queued) > 0 then begin
      let f = grant st c ~link:false ~sw:i p in
      if f != Router.idle then begin
        st.delivered_flits <- st.delivered_flits + 1;
        if f.Router.idx = f.Router.packet.Packet.size_flits - 1 then begin
          st.delivered_rev <- { packet = f.Router.packet; delivered_at = c } :: st.delivered_rev;
          st.delivered_packets <- st.delivered_packets + 1
        end
      end
    end
  done;
  (* phase 4: switch allocation + link sends, gated on downstream credits;
     a flit on the wire keeps its arrival cycle in [ready_at] *)
  for i = 0 to Array.length t.routers - 1 do
    let outputs = t.routers.(i).Router.outputs in
    for k = 1 to Array.length outputs - 1 do
      let p = outputs.(k) in
      if !(p.Router.queued) > 0 && p.Router.wire == Router.idle then begin
        let f = grant st c ~link:true ~sw:i p in
        if f != Router.idle then begin
          ignore (Credit.take f.Router.plan.(f.Router.hop + 1).Router.credits);
          p.Router.wire <- f;
          f.Router.ready_at <- c + t.ppf;
          st.wire_occupancy <- st.wire_occupancy + 1
        end
      end
    done
  done;
  (* phase 5: NI injection, one flit per source per cycle *)
  if st.ni_occupancy > 0 then
    for i = 0 to Array.length t.routers - 1 do
      let ni = t.routers.(i).Router.ni in
      if not (Queue.is_empty ni) then begin
        let f = Queue.peek ni in
        let voq = f.Router.plan.(0) in
        if Queue.length voq.Router.q < t.cfg.fifo_depth then begin
          ignore (Queue.take ni);
          enqueue t st c f voq;
          st.ni_occupancy <- st.ni_occupancy - 1
        end
      end
    done

let pending t = t.st.injected_packets - t.st.delivered_packets

let run_until_idle ?(max_cycles = 100_000) t =
  let limit = t.st.cycle + max_cycles in
  let rec go () =
    if pending t = 0 then `Idle
    else if t.st.cycle >= limit then `Limit (pending t)
    else begin
      step t;
      (* No movement with nothing on a wire and no credit in flight is a
         fixpoint: the same allocation decisions repeat forever. *)
      let st = t.st in
      if
        (not st.moved) && st.wire_occupancy = 0 && st.ndue = 0
        && st.cycle >= st.last_ready && pending t > 0
      then `Deadlock
      else go ()
    end
  in
  go ()

let deliveries t = List.rev t.st.delivered_rev

let drain_deliveries t =
  let st = t.st in
  let rec take n l acc = if n = 0 then acc else take (n - 1) (List.tl l) (List.hd l :: acc) in
  let since = take (st.delivered_packets - st.drained) st.delivered_rev [] in
  st.drained <- st.delivered_packets;
  since
let injected_flits t = t.st.injected_flits
let delivered_flits t = t.st.delivered_flits
let in_flight_flits t = t.st.ni_occupancy + t.st.voq_occupancy + t.st.wire_occupancy
let conservation_ok t = t.st.injected_flits = t.st.delivered_flits + in_flight_flits t
let flit_hops t = t.st.flit_hops
let buffer_flit_cycles t = t.st.buffer_flit_cycles

let link_flits t =
  let m = ref Edge_map.empty in
  Array.iteri
    (fun i (r : Router.t) ->
      Array.iteri
        (fun k n ->
          match r.Router.outputs.(k).Router.dest with
          | Router.To v when n > 0 -> m := Edge_map.add (r.Router.node, v) n !m
          | _ -> ())
        t.st.link_count.(i))
    t.routers;
  !m

let switch_flits t =
  let m = ref Vmap.empty in
  Array.iteri
    (fun i n -> if n > 0 then m := Vmap.add t.routers.(i).Router.node n !m)
    t.st.switch_count;
  !m

let vc_truncated t = t.cfg.num_vcs < (Noc_core.Deadlock.analyze t.arch).vcs_needed

let metrics t =
  let st = t.st in
  [
    ("flit.cycles", float_of_int st.cycle);
    ("flit.injected_packets", float_of_int st.injected_packets);
    ("flit.delivered_packets", float_of_int st.delivered_packets);
    ("flit.pending_packets", float_of_int (pending t));
    ("flit.injected_flits", float_of_int st.injected_flits);
    ("flit.delivered_flits", float_of_int st.delivered_flits);
    ("flit.in_flight_flits", float_of_int (in_flight_flits t));
    ("flit.flit_hops", float_of_int st.flit_hops);
    ("flit.buffer_flit_cycles", float_of_int st.buffer_flit_cycles);
    ("flit.phits_per_flit", float_of_int t.ppf);
  ]
