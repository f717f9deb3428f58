(** The work-stealing pool of the parallel search and exploration.

    The branch-and-bound search and the design-space exploration both
    shard work across OCaml domains through {!run}, the one place the
    library spawns domains: every worker owns a deque, pushes and pops
    work at the bottom (depth-first, cache-local) and steals from other
    workers' tops when idle (breadth-first, stealing the biggest units). *)

type stats = {
  workers : int;  (** domains that ran, the caller's included *)
  tasks : int;  (** initial tasks plus every spawned one *)
  steals : int;  (** tasks taken from another worker's deque *)
  busy_s : float array;  (** per worker: seconds spent running tasks *)
  idle_s : float array;  (** per worker: the rest of its lifetime *)
}

val run :
  ?observe:Noc_obs.Obs.t ->
  domains:int ->
  'a array ->
  (slot:int -> spawn:('a -> unit) -> 'a -> unit) ->
  stats
(** [run ~domains tasks f] runs [f ~slot ~spawn t] for every task [t] on a
    pool of [domains] workers (at least 1; worker 0 is the calling domain,
    so [domains = 1] spawns none).  The initial [tasks] are dealt
    round-robin over the workers' deques before any worker starts, so each
    worker pops its share in array order.  [slot] is the running worker's
    index; [spawn t'] pushes a new task onto that worker's deque.  A
    counter of pending (dealt or spawned, not yet finished) tasks decides
    termination: a worker that finds every deque empty keeps probing
    until the counter reaches zero, since a running task may still spawn.
    After the first exception raised by [f] no worker takes a new task;
    the pool is joined and the exception re-raised.  With an enabled
    [observe] each worker's lifetime is one [worker <slot>] span on its
    domain.  [domains] is used as given — callers clamp against
    {!Branch_bound.domain_cap} as appropriate. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array * stats
(** [map ~domains f xs] applies [f] to every element of [xs] with {!run}
    on [min domains (Array.length xs)] workers (default 1) and returns the
    results {e in input order}: slot [i] of the result is [f xs.(i)] no
    matter which worker computed it or in what order, so the output is
    deterministic for deterministic [f] regardless of the domain count or
    steal interleaving.  An exception raised by [f] is re-raised after the
    pool is joined. *)
