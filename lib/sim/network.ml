module D = Noc_graph.Digraph
module Edge_map = D.Edge_map
module Vmap = D.Vmap

type config = {
  router_delay : int;
  link_delay : int;
  flit_bits : int;
}

let default_config = { router_delay = 1; link_delay = 1; flit_bits = 8 }

type fault_policy = {
  max_retries : int;
  backoff_base : int;
  backoff_cap : int;
}

let default_fault_policy = { max_retries = 8; backoff_base = 2; backoff_cap = 64 }

type policy = Fixed | Adaptive | Oblivious of Noc_util.Prng.t

type delivery = Packet.delivery = { packet : Packet.t; delivered_at : int }

type drop_reason = Link_failed | Switch_failed | No_route | Retries_exhausted

type drop = { packet : Packet.t; dropped_at : int; reason : drop_reason }

let pp_drop_reason ppf r =
  Format.pp_print_string ppf
    (match r with
    | Link_failed -> "link-failed"
    | Switch_failed -> "switch-failed"
    | No_route -> "no-route"
    | Retries_exhausted -> "retries-exhausted")

(* A packet currently at a router, waiting for (or about to request) its
   next channel. *)
type in_flight = {
  packet : Packet.t;
  mutable path : int array;  (* live plan; starts as the packet's route *)
  mutable hop : int;  (* index of [node] within [path] *)
  mutable node : int;  (* router currently holding the packet *)
  mutable trace : int list;  (* nodes visited, most recent first *)
  mutable retries : int;  (* source-NI retransmissions so far *)
  mutable on_link : D.Edge.t option;  (* channel last granted to the packet *)
  mutable wire_until : int;  (* cycle the tail lands downstream *)
}

type channel = {
  mutable busy_until : int;
  waiting : in_flight Queue.t;
}

type fault_event =
  | Fail_link of int * int
  | Repair_link of int * int
  | Fail_switch of int
  | Repair_switch of int

type t = {
  arch : Noc_core.Synthesis.t;
  cfg : config;
  policy : policy;
  fault_cfg : fault_policy;
  (* lazily computed hop distances to a destination over the live topology *)
  dist_tables : (int, int Vmap.t) Hashtbl.t;
  traces : (int, int list) Hashtbl.t;  (* delivered packet id -> path *)
  mutable cycle : int;
  mutable next_id : int;
  mutable in_network : int;
  channels : (D.Edge.t, channel) Hashtbl.t;
  channel_order : D.Edge.t array;  (* fixed arbitration scan order *)
  (* arrivals.(future cycle) -> packets becoming ready at a router *)
  arrivals : (int, in_flight list ref) Hashtbl.t;
  live : (int, in_flight) Hashtbl.t;  (* undelivered, undropped packets *)
  mutable live_topology : D.t;  (* arch topology minus current faults *)
  failed_links : (D.Edge.t, unit) Hashtbl.t;  (* normalized (min, max) *)
  failed_switches : (int, unit) Hashtbl.t;
  mutable fault_events : (int * int * fault_event) list;  (* (at, seq, ev), sorted *)
  mutable fault_seq : int;
  mutable delivered_rev : delivery list;
  mutable drain_rev : delivery list;
  mutable dropped_rev : drop list;
  mutable flit_hops : int;
  mutable link_flits : int Edge_map.t;
  mutable switch_flits : int Vmap.t;
  mutable buffer_flit_cycles : int;
  mutable queued_flits : int;
  mutable contention_events : int;
  mutable retries_total : int;
  mutable faults_applied : int;
  mutable repairs_applied : int;
}

let create ?(config = default_config) ?(policy = Fixed)
    ?(fault_policy = default_fault_policy) arch =
  if config.router_delay < 1 || config.link_delay < 1 then
    invalid_arg "Network.create: delays must be >= 1";
  if config.flit_bits < 1 then invalid_arg "Network.create: flit_bits must be >= 1";
  if fault_policy.max_retries < 0 || fault_policy.backoff_base < 1
     || fault_policy.backoff_cap < fault_policy.backoff_base
  then invalid_arg "Network.create: invalid fault policy";
  let channels = Hashtbl.create 64 in
  let edges = D.edges arch.Noc_core.Synthesis.topology in
  List.iter
    (fun e -> Hashtbl.replace channels e { busy_until = 0; waiting = Queue.create () })
    edges;
  {
    arch;
    cfg = config;
    policy;
    fault_cfg = fault_policy;
    dist_tables = Hashtbl.create 16;
    traces = Hashtbl.create 64;
    cycle = 0;
    next_id = 0;
    in_network = 0;
    channels;
    channel_order = Array.of_list edges;
    arrivals = Hashtbl.create 64;
    live = Hashtbl.create 64;
    live_topology = arch.Noc_core.Synthesis.topology;
    failed_links = Hashtbl.create 8;
    failed_switches = Hashtbl.create 8;
    fault_events = [];
    fault_seq = 0;
    delivered_rev = [];
    drain_rev = [];
    dropped_rev = [];
    flit_hops = 0;
    link_flits = Edge_map.empty;
    switch_flits = Vmap.empty;
    buffer_flit_cycles = 0;
    queued_flits = 0;
    contention_events = 0;
    retries_total = 0;
    faults_applied = 0;
    repairs_applied = 0;
  }

let now t = t.cycle

let config t = t.cfg

let norm_link u v = if u <= v then (u, v) else (v, u)

let link_failed t u v = Hashtbl.mem t.failed_links (norm_link u v)

let switch_failed t s = Hashtbl.mem t.failed_switches s

let failed_links t =
  Hashtbl.fold (fun e () acc -> e :: acc) t.failed_links [] |> List.sort compare

let failed_switches t =
  Hashtbl.fold (fun s () acc -> s :: acc) t.failed_switches [] |> List.sort compare

(* Rebuild the surviving topology from scratch; cheap at NoC sizes and
   makes fail/repair trivially symmetric. *)
let recompute_live t =
  let g =
    Hashtbl.fold
      (fun s () g -> D.remove_vertex g s)
      t.failed_switches t.arch.Noc_core.Synthesis.topology
  in
  let g =
    Hashtbl.fold
      (fun (u, v) () g -> D.remove_edge (D.remove_edge g u v) v u)
      t.failed_links g
  in
  t.live_topology <- g;
  Hashtbl.reset t.dist_tables

let count_switch t node flits =
  t.switch_flits <-
    Vmap.add node (flits + Option.value ~default:0 (Vmap.find_opt node t.switch_flits))
      t.switch_flits

let schedule_arrival t at inf =
  let cell =
    match Hashtbl.find_opt t.arrivals at with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.arrivals at l;
        l
  in
  cell := inf :: !cell

let deliver t inf =
  t.in_network <- t.in_network - 1;
  Hashtbl.remove t.live inf.packet.Packet.id;
  Hashtbl.replace t.traces inf.packet.Packet.id (List.rev inf.trace);
  let d = { packet = inf.packet; delivered_at = t.cycle } in
  t.delivered_rev <- d :: t.delivered_rev;
  t.drain_rev <- d :: t.drain_rev

let drop t inf reason =
  t.in_network <- t.in_network - 1;
  Hashtbl.remove t.live inf.packet.Packet.id;
  t.dropped_rev <- { packet = inf.packet; dropped_at = t.cycle; reason } :: t.dropped_rev

(* hop distances to [dst] over the (symmetric) live topology, memoized;
   the memo table is reset whenever the topology changes *)
let distances_to t dst =
  match Hashtbl.find_opt t.dist_tables dst with
  | Some m -> m
  | None ->
      (* BFS from dst following predecessor links = distance-to-dst *)
      let m = Noc_graph.Traversal.bfs_distances (D.reverse t.live_topology) dst in
      Hashtbl.replace t.dist_tables dst m;
      m

(* the next hop under the adaptive/oblivious policies: a surviving neighbor
   strictly closer to the destination, or None when faults cut us off *)
let choose_next t inf =
  let dst = inf.packet.Packet.dst in
  let node = inf.node in
  let dist = distances_to t dst in
  let here = match Vmap.find_opt node dist with Some d -> d | None -> max_int in
  let candidates =
    D.Vset.fold
      (fun n acc ->
        match Vmap.find_opt n dist with
        | Some d when d < here -> n :: acc
        | Some _ | None -> acc)
      (D.succ t.live_topology node) []
    |> List.sort Int.compare
  in
  match (candidates, t.policy) with
  | [], _ -> None
  | _ :: _, Oblivious rng ->
      Some (List.nth candidates (Noc_util.Prng.int rng (List.length candidates)))
  | _ :: _, (Fixed | Adaptive) ->
      (* Adaptive: least backlog; ties by node id (the sort above) *)
      let backlog n =
        match Hashtbl.find_opt t.channels (node, n) with
        | Some ch ->
            let busy = max 0 (ch.busy_until - t.cycle) in
            busy + Queue.fold (fun acc i -> acc + i.packet.Packet.size_flits) 0 ch.waiting
        | None -> max_int
      in
      List.fold_left
        (fun best n ->
          match best with
          | None -> Some n
          | Some b -> if backlog n < backlog b then Some n else best)
        None candidates

(* Are any repairs still scheduled?  If not, a routeless packet is
   permanently undeliverable and retrying is pointless. *)
let has_pending_repairs t =
  List.exists
    (fun (_, _, ev) -> match ev with Repair_link _ | Repair_switch _ -> true | _ -> false)
    t.fault_events

(* Send the packet back to its source NI with bounded exponential backoff;
   the plan is cleared so dispatch replans on the surviving topology. *)
let rec retry_from_source t inf =
  let p = inf.packet in
  if switch_failed t p.Packet.src || switch_failed t p.Packet.dst then
    drop t inf Switch_failed
  else if inf.retries >= t.fault_cfg.max_retries then drop t inf Retries_exhausted
  else begin
    inf.retries <- inf.retries + 1;
    t.retries_total <- t.retries_total + 1;
    let backoff =
      min t.fault_cfg.backoff_cap (t.fault_cfg.backoff_base lsl (inf.retries - 1))
    in
    let backoff = if backoff < 1 then t.fault_cfg.backoff_cap else backoff in
    inf.path <- [||];
    inf.hop <- 0;
    inf.node <- p.Packet.src;
    inf.trace <- [ p.Packet.src ];
    inf.on_link <- None;
    inf.wire_until <- 0;
    count_switch t p.Packet.src p.Packet.size_flits;
    schedule_arrival t (t.cycle + t.cfg.router_delay + backoff) inf
  end

(* A packet is ready at a router: either it is home, or it queues for its
   next channel (planned under Fixed, chosen per hop otherwise).  When the
   planned hop is unusable (failed link/switch) the packet replans with a
   shortest path over the surviving topology; with no surviving path it is
   retried from the source (faults may be transient) or dropped. *)
and route_or_deliver t inf =
  let p = inf.packet in
  if inf.node = p.Packet.dst then deliver t inf
  else if switch_failed t inf.node then
    (* the router holding the packet died before it could move on *)
    retry_from_source t inf
  else begin
    let planned_next () =
      match t.policy with
      | Fixed ->
          if inf.hop + 1 < Array.length inf.path then begin
            let next = inf.path.(inf.hop + 1) in
            if D.mem_edge t.live_topology inf.node next then Some next else None
          end
          else None
      | Adaptive | Oblivious _ -> choose_next t inf
    in
    let next =
      match planned_next () with
      | Some _ as n -> n
      | None -> (
          (* replan over what survives *)
          match Noc_graph.Traversal.shortest_path t.live_topology inf.node p.Packet.dst with
          | Some path ->
              inf.path <- Array.of_list path;
              inf.hop <- 0;
              Some inf.path.(1)
          | None -> None)
    in
    match next with
    | None ->
        if switch_failed t p.Packet.dst then drop t inf Switch_failed
        else if inf.node = p.Packet.src && not (has_pending_repairs t) then
          (* permanently cut off: no surviving path and nothing will heal *)
          drop t inf No_route
        else retry_from_source t inf
    | Some next -> (
        match Hashtbl.find_opt t.channels (inf.node, next) with
        | Some ch ->
            (* the channel is either mid-transmission or already has queued
               packets: this packet will stall at least one cycle *)
            if ch.busy_until > t.cycle || not (Queue.is_empty ch.waiting) then
              t.contention_events <- t.contention_events + 1;
            Queue.add inf ch.waiting;
            t.queued_flits <- t.queued_flits + inf.packet.Packet.size_flits
        | None ->
            invalid_arg
              (Printf.sprintf "Network: route uses missing link %d->%d" inf.node next))
  end

(* -------------------------------------------------------------------- *)
(* Fault application                                                    *)

(* Drain a directed channel's waiting queue.  The packets still sit in the
   upstream router's buffers: with [dead_source] the router itself died and
   they go back to their sources; otherwise they immediately re-request an
   output (replanning around the dead link). *)
let spill_channel t e ~dead_source =
  match Hashtbl.find_opt t.channels e with
  | None -> ()
  | Some ch ->
      let drained = ref [] in
      Queue.iter (fun inf -> drained := inf :: !drained) ch.waiting;
      Queue.clear ch.waiting;
      List.iter
        (fun inf ->
          t.queued_flits <- t.queued_flits - inf.packet.Packet.size_flits;
          if dead_source then retry_from_source t inf else route_or_deliver t inf)
        (List.rev !drained)

(* Remove in-transit packets matching [pred] from the arrival schedule and
   return them sorted by packet id (Hashtbl iteration order is not
   deterministic; the sort restores it). *)
let recall_in_transit t pred =
  let recalled = ref [] in
  Hashtbl.iter
    (fun _at cell ->
      let keep, lost = List.partition (fun inf -> not (pred inf)) !cell in
      if lost <> [] then begin
        cell := keep;
        recalled := lost @ !recalled
      end)
    t.arrivals;
  List.sort (fun a b -> Int.compare a.packet.Packet.id b.packet.Packet.id) !recalled

(* Is the packet physically exposed to the failure of link [e]?  Only while
   its flits are still on the wire ([wire_until] not yet reached); once the
   tail has landed the packet lives in the downstream router's buffer. *)
let on_wire_of t inf (u, v) =
  t.cycle < inf.wire_until
  && (match inf.on_link with
     | Some (a, b) -> (a = u && b = v) || (a = v && b = u)
     | None -> false)

(* Is the packet resident in (or being serialized out of) switch [s]? *)
let at_switch t inf s =
  match inf.on_link with
  | Some (a, b) -> b = s || (a = s && t.cycle < inf.wire_until)
  | None -> inf.node = s

let apply_fault_event t ev =
  match ev with
  | Fail_link (u, v) ->
      let u, v = norm_link u v in
      if not (Hashtbl.mem t.failed_links (u, v)) then begin
        Hashtbl.replace t.failed_links (u, v) ();
        t.faults_applied <- t.faults_applied + 1;
        recompute_live t;
        (* packets queued at either endpoint replan immediately *)
        spill_channel t (u, v) ~dead_source:false;
        spill_channel t (v, u) ~dead_source:false;
        (* packets whose flits are on the dead wire are lost and must be
           retransmitted by their source NI *)
        let lost = recall_in_transit t (fun inf -> on_wire_of t inf (u, v)) in
        List.iter (retry_from_source t) lost
      end
  | Repair_link (u, v) ->
      let u, v = norm_link u v in
      if Hashtbl.mem t.failed_links (u, v) then begin
        Hashtbl.remove t.failed_links (u, v);
        t.repairs_applied <- t.repairs_applied + 1;
        recompute_live t
      end
  | Fail_switch s ->
      if not (Hashtbl.mem t.failed_switches s) then begin
        Hashtbl.replace t.failed_switches s ();
        t.faults_applied <- t.faults_applied + 1;
        recompute_live t;
        (* everything buffered in s is lost; everything queued at a live
           neighbor towards s replans (fixed scan order for determinism) *)
        Array.iter
          (fun (a, b) ->
            if a = s then spill_channel t (a, b) ~dead_source:true
            else if b = s then spill_channel t (a, b) ~dead_source:false)
          t.channel_order;
        let lost = recall_in_transit t (fun inf -> at_switch t inf s) in
        List.iter (retry_from_source t) lost
      end
  | Repair_switch s ->
      if Hashtbl.mem t.failed_switches s then begin
        Hashtbl.remove t.failed_switches s;
        t.repairs_applied <- t.repairs_applied + 1;
        recompute_live t
      end

let schedule_fault_event t ~at ev =
  if at <= t.cycle then apply_fault_event t ev
  else begin
    let seq = t.fault_seq in
    t.fault_seq <- seq + 1;
    t.fault_events <-
      List.sort
        (fun (a, sa, _) (b, sb, _) -> if a <> b then Int.compare a b else Int.compare sa sb)
        ((at, seq, ev) :: t.fault_events)
  end

let check_link_exists t u v =
  if not (D.mem_edge t.arch.Noc_core.Synthesis.topology u v) then
    invalid_arg (Printf.sprintf "Network: no physical link %d-%d" u v)

let check_switch_exists t s =
  if not (D.mem_vertex t.arch.Noc_core.Synthesis.topology s) then
    invalid_arg (Printf.sprintf "Network: no switch %d" s)

let fail_link_at t ~at ?repair_at u v =
  check_link_exists t u v;
  schedule_fault_event t ~at (Fail_link (u, v));
  Option.iter (fun r -> schedule_fault_event t ~at:r (Repair_link (u, v))) repair_at

let fail_switch_at t ~at ?repair_at s =
  check_switch_exists t s;
  schedule_fault_event t ~at (Fail_switch s);
  Option.iter (fun r -> schedule_fault_event t ~at:r (Repair_switch s)) repair_at

let fail_link t u v = fail_link_at t ~at:t.cycle u v

let fail_switch t s = fail_switch_at t ~at:t.cycle s

let repair_link t u v =
  check_link_exists t u v;
  apply_fault_event t (Repair_link (u, v))

let repair_switch t s =
  check_switch_exists t s;
  apply_fault_event t (Repair_switch s)

(* -------------------------------------------------------------------- *)

let inject ?(tag = 0) ?(payload = Bytes.empty) ?(size_flits = 1) t ~src ~dst =
  if size_flits < 1 then invalid_arg "Network.inject: size_flits must be >= 1";
  match Noc_core.Synthesis.route t.arch ~src ~dst with
  | None -> invalid_arg (Printf.sprintf "Network.inject: no route %d->%d" src dst)
  | Some path ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let packet =
        {
          Packet.id;
          src;
          dst;
          size_flits;
          tag;
          payload;
          route = Array.of_list path;
          injected_at = t.cycle;
        }
      in
      t.in_network <- t.in_network + 1;
      let inf =
        {
          packet;
          path = Array.of_list path;
          hop = 0;
          node = src;
          trace = [ src ];
          retries = 0;
          on_link = None;
          wire_until = 0;
        }
      in
      Hashtbl.replace t.live id inf;
      if switch_failed t src || switch_failed t dst then
        (* the NI itself (or its peer) is down: record the loss *)
        drop t inf Switch_failed
      else begin
        count_switch t src size_flits;
        (* source router processing, then contend for the first channel *)
        schedule_arrival t (t.cycle + t.cfg.router_delay) inf
      end;
      id

let step t =
  t.cycle <- t.cycle + 1;
  (* flits sitting in router queues burn retention energy this cycle *)
  t.buffer_flit_cycles <- t.buffer_flit_cycles + t.queued_flits;
  (* 1. fault events due this cycle strike before anything moves *)
  let rec fire () =
    match t.fault_events with
    | (at, _, ev) :: rest when at <= t.cycle ->
        t.fault_events <- rest;
        apply_fault_event t ev;
        fire ()
    | _ -> ()
  in
  fire ();
  (* 2. packets becoming ready at routers this cycle *)
  (match Hashtbl.find_opt t.arrivals t.cycle with
  | Some cell ->
      Hashtbl.remove t.arrivals t.cycle;
      (* restore deterministic order: schedule_arrival prepends *)
      List.iter
        (fun inf ->
          inf.on_link <- None;
          route_or_deliver t inf)
        (List.rev !cell)
  | None -> ());
  (* 3. channel arbitration in fixed scan order; dead channels grant nothing *)
  Array.iter
    (fun e ->
      let u, v = e in
      let ch = Hashtbl.find t.channels e in
      if
        ch.busy_until <= t.cycle
        && (not (Queue.is_empty ch.waiting))
        && D.mem_edge t.live_topology u v
      then begin
        let inf = Queue.pop ch.waiting in
        let flits = inf.packet.Packet.size_flits in
        t.queued_flits <- t.queued_flits - flits;
        ch.busy_until <- t.cycle + flits;
        t.flit_hops <- t.flit_hops + flits;
        t.link_flits <-
          Edge_map.add e
            (flits + Option.value ~default:0 (Edge_map.find_opt e t.link_flits))
            t.link_flits;
        count_switch t v flits;
        inf.hop <- inf.hop + 1;
        inf.node <- v;
        inf.trace <- v :: inf.trace;
        inf.on_link <- Some e;
        let tail_arrives = t.cycle + t.cfg.link_delay + flits - 1 in
        inf.wire_until <- tail_arrives;
        schedule_arrival t (tail_arrives + t.cfg.router_delay) inf
      end)
    t.channel_order

let pending t = t.in_network

let stranded t =
  Hashtbl.fold (fun _ inf acc -> inf.packet :: acc) t.live []
  |> List.sort (fun a b -> Int.compare a.Packet.id b.Packet.id)

let run_until_idle ?(max_cycles = 1_000_000) t =
  let start = t.cycle in
  let rec go () =
    if t.in_network = 0 then `Idle
    else if t.cycle - start >= max_cycles then `Limit t.in_network
    else begin
      step t;
      go ()
    end
  in
  go ()

let deliveries t = List.rev t.delivered_rev

let drain_deliveries t =
  let ds = List.rev t.drain_rev in
  t.drain_rev <- [];
  ds

let drops t = List.rev t.dropped_rev

let dropped_count t = List.length t.dropped_rev

let retries t = t.retries_total

let arch t = t.arch

let live_topology t = t.live_topology

let route_taken t id = Hashtbl.find_opt t.traces id

let buffer_flit_cycles t = t.buffer_flit_cycles

let flit_hops t = t.flit_hops

let link_flits t = t.link_flits

let switch_flits t = t.switch_flits

let contention_events t = t.contention_events

let delivered_count t = List.length t.delivered_rev

let metrics t =
  let base =
    [
      ("cycles", float_of_int t.cycle);
      ("injected", float_of_int t.next_id);
      ("delivered", float_of_int (delivered_count t));
      ("dropped", float_of_int (dropped_count t));
      ("in_network", float_of_int t.in_network);
      ("flit_hops", float_of_int t.flit_hops);
      ("buffer_flit_cycles", float_of_int t.buffer_flit_cycles);
      ("queued_flits", float_of_int t.queued_flits);
      ("contention_events", float_of_int t.contention_events);
      ("retries", float_of_int t.retries_total);
      ("faults_applied", float_of_int t.faults_applied);
      ("repairs_applied", float_of_int t.repairs_applied);
      ("failed_links", float_of_int (Hashtbl.length t.failed_links));
      ("failed_switches", float_of_int (Hashtbl.length t.failed_switches));
    ]
  in
  let routers =
    Vmap.fold
      (fun v n acc -> (Printf.sprintf "router.%d.flits" v, float_of_int n) :: acc)
      t.switch_flits []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let links =
    Edge_map.fold
      (fun (u, v) n acc ->
        (Printf.sprintf "link.%d-%d.flits" u v, float_of_int n) :: acc)
      t.link_flits []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  base @ routers @ links
