(* A mutex-protected double-ended work queue.  [push_bottom]/[pop_bottom]
   are the owner's LIFO end; [steal_top] is the thieves' FIFO end.  The
   mutex is uncontended in the common case (one owner, occasional
   thieves), which keeps the implementation obviously correct without a
   lock-free protocol. *)
module Deque = struct
  type 'a t = {
    mutex : Mutex.t;
    mutable buf : 'a option array;
    mutable head : int;
    mutable len : int;
  }

  let create () = { mutex = Mutex.create (); buf = Array.make 64 None; head = 0; len = 0 }

  let push_bottom t x =
    Mutex.lock t.mutex;
    let cap = Array.length t.buf in
    if t.len = cap then begin
      let nbuf = Array.make (2 * cap) None in
      for i = 0 to t.len - 1 do
        nbuf.(i) <- t.buf.((t.head + i) mod cap)
      done;
      t.buf <- nbuf;
      t.head <- 0
    end;
    t.buf.((t.head + t.len) mod Array.length t.buf) <- Some x;
    t.len <- t.len + 1;
    Mutex.unlock t.mutex

  let pop_bottom t =
    Mutex.lock t.mutex;
    let r =
      if t.len = 0 then None
      else begin
        let i = (t.head + t.len - 1) mod Array.length t.buf in
        let x = t.buf.(i) in
        t.buf.(i) <- None;
        t.len <- t.len - 1;
        x
      end
    in
    Mutex.unlock t.mutex;
    r

  let steal_top t =
    Mutex.lock t.mutex;
    let r =
      if t.len = 0 then None
      else begin
        let x = t.buf.(t.head) in
        t.buf.(t.head) <- None;
        t.head <- (t.head + 1) mod Array.length t.buf;
        t.len <- t.len - 1;
        x
      end
    in
    Mutex.unlock t.mutex;
    r
end

module Obs = Noc_obs.Obs
module Timer = Noc_util.Timer

type stats = {
  workers : int;
  tasks : int;
  steals : int;
  busy_s : float array;
  idle_s : float array;
}

let run ?(observe = Obs.disabled) ~domains tasks f =
  let n_dom = max 1 domains in
  let deques = Array.init n_dom (fun _ -> Deque.create ()) in
  (* deal highest first, so each owner pops its own share in array order
     (pop_bottom is LIFO) *)
  for i = Array.length tasks - 1 downto 0 do
    Deque.push_bottom deques.(i mod n_dom) tasks.(i)
  done;
  let pending = Atomic.make (Array.length tasks) in
  let task_count = Atomic.make (Array.length tasks) in
  let steal_count = Atomic.make 0 in
  let first_exn = Atomic.make None in
  let busy_s = Array.make n_dom 0.0 in
  let idle_s = Array.make n_dom 0.0 in
  let worker slot () =
    let t_begin = Timer.now_mono_s () in
    let busy = ref 0.0 in
    let my = deques.(slot) in
    let spawn t =
      Atomic.incr pending;
      Atomic.incr task_count;
      Deque.push_bottom my t
    in
    let try_steal () =
      let stolen = ref None in
      let k = ref 1 in
      while Option.is_none !stolen && !k < n_dom do
        (match Deque.steal_top deques.((slot + !k) mod n_dom) with
        | Some t ->
            Atomic.incr steal_count;
            stolen := Some t
        | None -> ());
        incr k
      done;
      !stolen
    in
    (* empty deques alone do not end the run: a task still running on
       another worker may spawn more, so only [pending = 0] does *)
    let rec obtain spins =
      if Atomic.get first_exn <> None then None
      else
        match Deque.pop_bottom my with
        | Some t -> Some t
        | None -> (
            match try_steal () with
            | Some t -> Some t
            | None ->
                if Atomic.get pending = 0 then None
                else begin
                  (* back off: spin briefly, then yield the hardware thread —
                     on an oversubscribed machine a spinning thief would
                     starve the one worker that has the work *)
                  if spins < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002;
                  obtain (spins + 1)
                end)
    in
    let rec loop () =
      match obtain 0 with
      | None -> ()
      | Some t ->
          let t0 = Timer.now_mono_s () in
          (match f ~slot ~spawn t with
          | () -> ()
          | exception e -> ignore (Atomic.compare_and_set first_exn None (Some e)));
          busy := !busy +. (Timer.now_mono_s () -. t0);
          Atomic.decr pending;
          loop ()
    in
    loop ();
    busy_s.(slot) <- !busy;
    idle_s.(slot) <- Timer.now_mono_s () -. t_begin -. !busy
  in
  let worker slot () =
    if Obs.enabled observe then
      Obs.span observe ~cat:"ws" (Printf.sprintf "worker %d" slot) (worker slot)
    else worker slot ()
  in
  let doms = Array.init (n_dom - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  Array.iter Domain.join doms;
  (match Atomic.get first_exn with Some e -> raise e | None -> ());
  {
    workers = n_dom;
    tasks = Atomic.get task_count;
    steals = Atomic.get steal_count;
    busy_s;
    idle_s;
  }

let map ?(domains = 1) f xs =
  let results = Array.make (Array.length xs) None in
  let stats =
    run ~domains:(min domains (Array.length xs)) (Array.init (Array.length xs) Fun.id)
      (fun ~slot:_ ~spawn:_ i -> results.(i) <- Some (f xs.(i)))
  in
  (Array.map Option.get results, stats)
