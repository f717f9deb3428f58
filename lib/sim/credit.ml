type t = { capacity : int; mutable available : int }

let create ~capacity =
  if capacity < 1 then invalid_arg "Credit.create: capacity must be >= 1";
  { capacity; available = capacity }

let capacity t = t.capacity
let available t = t.available

let take t =
  if t.available > 0 then begin
    t.available <- t.available - 1;
    true
  end
  else false

let put t =
  if t.available >= t.capacity then invalid_arg "Credit.put: counter already full";
  t.available <- t.available + 1

let refill t = t.available <- t.capacity

let balanced t ~outstanding = t.available + outstanding = t.capacity
