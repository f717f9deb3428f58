type t = {
  id : int;
  src : int;
  dst : int;
  size_flits : int;
  tag : int;
  payload : Bytes.t;
  route : int array;
  injected_at : int;
}

type delivery = { packet : t; delivered_at : int }

let hops t = Array.length t.route - 1

let pp ppf t =
  Format.fprintf ppf "pkt#%d %d->%d (%d flits, tag %d, t=%d)" t.id t.src t.dst
    t.size_flits t.tag t.injected_at
