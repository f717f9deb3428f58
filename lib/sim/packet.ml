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
