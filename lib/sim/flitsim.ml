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

type delivery = Packet.delivery = { packet : Packet.t; delivered_at : int }

type t = {
  arch : Syn.t;
  cfg : config;
  ppf : int;
  order : int array;  (* all router ids, ascending: the one scan order every phase uses *)
  routers : (int, Router.t) Hashtbl.t;
  credit_due : (int, Credit.t list ref) Hashtbl.t;
  mutable pending_credits : int;
  mutable cycle : int;
  mutable next_id : int;
  mutable injected_packets : int;
  mutable delivered_packets : int;
  mutable delivered_rev : delivery list;
  mutable injected_flits : int;
  mutable delivered_flits : int;
  mutable ni_occupancy : int;
  mutable voq_occupancy : int;
  mutable wire_occupancy : int;
  mutable flit_hops : int;
  mutable buffer_flit_cycles : int;
  mutable link_flits : int Edge_map.t;
  mutable switch_flits : int Vmap.t;
  mutable moved : bool;
  mutable last_ready : int;
      (* latest ready_at ever assigned: while cycle < last_ready a flit may
         still be maturing in a router pipeline, so a motionless cycle is
         not yet proof of a fixpoint *)
}

let create ?(config = default_config) arch =
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
  let order = Array.of_list (D.Vset.elements vset) in
  let routers = Hashtbl.create (Array.length order) in
  Array.iter
    (fun v ->
      let preds = if D.mem_vertex topo v then D.Vset.elements (D.pred topo v) else [] in
      let succs = if D.mem_vertex topo v then D.Vset.elements (D.succ topo v) else [] in
      let depth = config.fifo_depth and num_vcs = config.num_vcs in
      Hashtbl.replace routers v (Router.create ~node:v ~preds ~succs ~depth ~num_vcs))
    order;
  {
    arch;
    cfg = config;
    ppf = phits_per_flit config;
    order;
    routers;
    credit_due = Hashtbl.create 64;
    pending_credits = 0;
    cycle = 0;
    next_id = 0;
    injected_packets = 0;
    delivered_packets = 0;
    delivered_rev = [];
    injected_flits = 0;
    delivered_flits = 0;
    ni_occupancy = 0;
    voq_occupancy = 0;
    wire_occupancy = 0;
    flit_hops = 0;
    buffer_flit_cycles = 0;
    link_flits = Edge_map.empty;
    switch_flits = Vmap.empty;
    moved = false;
    last_ready = 0;
  }

let now t = t.cycle
let config t = t.cfg
let router t v = Hashtbl.find t.routers v

(* Output port a flit wants at the router [route.(at)]. *)
let output_at (f : Router.flit) ~at =
  let route = f.Router.packet.Packet.route in
  if at = Array.length route - 1 then Router.Eject else Router.To route.(at + 1)

(* The downstream VOQ a flit lands in when its current router puts it on
   the link — the queue whose credit the sender must hold: the lane of
   its packet's virtual channel on that link. *)
let downstream_voq t (f : Router.flit) =
  let route = f.Router.packet.Packet.route in
  let hop = f.Router.hop in
  Router.find_voq
    (router t route.(hop + 1))
    ~input:(Router.From route.(hop))
    ~output:(output_at f ~at:(hop + 1))
    ~vc:f.Router.lanes.(hop)

let schedule_credit t at credits =
  let l =
    match Hashtbl.find_opt t.credit_due at with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.credit_due at l;
        l
  in
  l := credits :: !l;
  t.pending_credits <- t.pending_credits + 1

let bump_link t key = t.link_flits <- Edge_map.update key (fun n -> Some (Option.value n ~default:0 + 1)) t.link_flits
let bump_switch t v = t.switch_flits <- Vmap.update v (fun n -> Some (Option.value n ~default:0 + 1)) t.switch_flits

let inject ?(tag = 0) ?(payload = Bytes.empty) ?(size_flits = 1) t ~src ~dst =
  if size_flits < 1 then invalid_arg "Flitsim.inject: size_flits must be >= 1";
  match Syn.route t.arch ~src ~dst with
  | None -> invalid_arg (Printf.sprintf "Flitsim.inject: no route %d -> %d" src dst)
  | Some path ->
      let route = Array.of_list path in
      let lanes = Noc_core.Deadlock.route_vcs ~num_vcs:t.cfg.num_vcs path in
      let id = t.next_id in
      t.next_id <- id + 1;
      let packet =
        { Packet.id; src; dst; size_flits; tag; payload; route; injected_at = t.cycle }
      in
      let r = router t src in
      for idx = 0 to size_flits - 1 do
        Queue.add
          { Router.flit = { Router.packet; lanes; idx; hop = 0 }; ready_at = t.cycle }
          r.Router.ni
      done;
      t.injected_packets <- t.injected_packets + 1;
      t.injected_flits <- t.injected_flits + size_flits;
      t.ni_occupancy <- t.ni_occupancy + size_flits;
      id

let head_ready c (voq : Router.voq) =
  match Queue.peek_opt voq.Router.q with
  | Some e -> e.Router.ready_at <= c
  | None -> false

let step t =
  t.cycle <- t.cycle + 1;
  let c = t.cycle in
  t.buffer_flit_cycles <- t.buffer_flit_cycles + t.voq_occupancy;
  t.moved <- false;
  (* phase 1: credit returns land *)
  (match Hashtbl.find_opt t.credit_due c with
  | None -> ()
  | Some l ->
      List.iter
        (fun cr ->
          Credit.put cr;
          t.pending_credits <- t.pending_credits - 1)
        !l;
      Hashtbl.remove t.credit_due c);
  (* phase 2: link arrivals enter downstream VOQs *)
  Array.iter
    (fun u ->
      let r = router t u in
      Array.iter
        (fun (p : Router.port) ->
          match (p.Router.dest, p.Router.in_flight) with
          | Router.To v, Some (f, arrive) when arrive <= c ->
              p.Router.in_flight <- None;
              f.Router.hop <- f.Router.hop + 1;
              let voq =
                Router.find_voq (router t v) ~input:(Router.From u)
                  ~output:(output_at f ~at:f.Router.hop)
                  ~vc:f.Router.lanes.(f.Router.hop - 1)
              in
              Queue.add { Router.flit = f; ready_at = c + t.cfg.router_delay } voq.Router.q;
              t.last_ready <- max t.last_ready (c + t.cfg.router_delay);
              t.wire_occupancy <- t.wire_occupancy - 1;
              t.voq_occupancy <- t.voq_occupancy + 1;
              t.flit_hops <- t.flit_hops + 1;
              bump_link t (u, v);
              t.moved <- true
          | _ -> ())
        r.Router.outputs)
    t.order;
  (* phase 3: ejection, one flit per sink per cycle *)
  Array.iter
    (fun v ->
      let r = router t v in
      match Router.port r Router.Eject with
      | exception Not_found -> ()
      | p -> (
          match Router.arbitrate p (head_ready c) with
          | None -> ()
          | Some voq ->
              let e = Queue.pop voq.Router.q in
              t.voq_occupancy <- t.voq_occupancy - 1;
              t.delivered_flits <- t.delivered_flits + 1;
              bump_switch t v;
              if voq.Router.input <> Router.Local then
                schedule_credit t (c + 1) voq.Router.credits;
              let f = e.Router.flit in
              if f.Router.idx = f.Router.packet.Packet.size_flits - 1 then begin
                t.delivered_rev <- { packet = f.Router.packet; delivered_at = c } :: t.delivered_rev;
                t.delivered_packets <- t.delivered_packets + 1
              end;
              t.moved <- true))
    t.order;
  (* phase 4: switch allocation + link sends, gated on downstream credits *)
  Array.iter
    (fun u ->
      let r = router t u in
      Array.iter
        (fun (p : Router.port) ->
          match p.Router.dest with
          | Router.Eject -> ()
          | Router.To _ ->
              if p.Router.in_flight = None && p.Router.busy_until <= c then (
                let eligible voq =
                  head_ready c voq
                  &&
                  let e = Queue.peek voq.Router.q in
                  Credit.available (downstream_voq t e.Router.flit).Router.credits > 0
                in
                match Router.arbitrate p eligible with
                | None -> ()
                | Some voq ->
                    let e = Queue.pop voq.Router.q in
                    let f = e.Router.flit in
                    ignore (Credit.take (downstream_voq t f).Router.credits);
                    if voq.Router.input <> Router.Local then
                      schedule_credit t (c + 1) voq.Router.credits;
                    p.Router.in_flight <- Some (f, c + t.ppf);
                    p.Router.busy_until <- c + t.ppf;
                    t.voq_occupancy <- t.voq_occupancy - 1;
                    t.wire_occupancy <- t.wire_occupancy + 1;
                    bump_switch t u;
                    t.moved <- true))
        r.Router.outputs)
    t.order;
  (* phase 5: NI injection, one flit per source per cycle *)
  Array.iter
    (fun v ->
      let r = router t v in
      match Queue.peek_opt r.Router.ni with
      | None -> ()
      | Some e ->
          let voq =
            Router.find_voq r ~input:Router.Local ~output:(output_at e.Router.flit ~at:0) ~vc:0
          in
          if Queue.length voq.Router.q < t.cfg.fifo_depth then begin
            ignore (Queue.pop r.Router.ni);
            e.Router.ready_at <- c + t.cfg.router_delay;
            t.last_ready <- max t.last_ready e.Router.ready_at;
            Queue.add e voq.Router.q;
            t.ni_occupancy <- t.ni_occupancy - 1;
            t.voq_occupancy <- t.voq_occupancy + 1;
            t.moved <- true
          end)
    t.order

let pending t = t.injected_packets - t.delivered_packets

let run_until_idle ?(max_cycles = 100_000) t =
  let limit = t.cycle + max_cycles in
  let rec go () =
    if pending t = 0 then `Idle
    else if t.cycle >= limit then `Limit (pending t)
    else begin
      step t;
      (* No movement with nothing on a wire and no credit in flight is a
         fixpoint: the same allocation decisions repeat forever. *)
      if
        (not t.moved) && t.wire_occupancy = 0 && t.pending_credits = 0
        && t.cycle >= t.last_ready && pending t > 0
      then `Deadlock
      else go ()
    end
  in
  go ()

let deliveries t = List.rev t.delivered_rev
let injected_flits t = t.injected_flits
let delivered_flits t = t.delivered_flits
let in_flight_flits t = t.ni_occupancy + t.voq_occupancy + t.wire_occupancy
let conservation_ok t = t.injected_flits = t.delivered_flits + in_flight_flits t
let flit_hops t = t.flit_hops
let buffer_flit_cycles t = t.buffer_flit_cycles
let link_flits t = t.link_flits
let switch_flits t = t.switch_flits

let summary t = Stats.summarize (deliveries t)

let vc_truncated t = t.cfg.num_vcs < (Noc_core.Deadlock.analyze t.arch).vcs_needed

let metrics t =
  [
    ("flit.cycles", float_of_int t.cycle);
    ("flit.injected_packets", float_of_int t.injected_packets);
    ("flit.delivered_packets", float_of_int t.delivered_packets);
    ("flit.pending_packets", float_of_int (pending t));
    ("flit.injected_flits", float_of_int t.injected_flits);
    ("flit.delivered_flits", float_of_int t.delivered_flits);
    ("flit.in_flight_flits", float_of_int (in_flight_flits t));
    ("flit.flit_hops", float_of_int t.flit_hops);
    ("flit.buffer_flit_cycles", float_of_int t.buffer_flit_cycles);
    ("flit.phits_per_flit", float_of_int t.ppf);
  ]
