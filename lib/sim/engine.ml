type kind = Coarse | Flit

let all_kinds = [ Coarse; Flit ]

let kind_name = function Coarse -> "coarse" | Flit -> "flit"

let kind_of_name = function "coarse" -> Some Coarse | "flit" -> Some Flit | _ -> None

type t = C of Network.t | F of Flitsim.t

let create ?coarse_config ?flit_config kind arch =
  match kind with
  | Coarse -> C (Network.create ?config:coarse_config arch)
  | Flit -> F (Flitsim.create ?config:flit_config arch)

let kind = function C _ -> Coarse | F _ -> Flit
let name t = kind_name (kind t)

let now = function C n -> Network.now n | F f -> Flitsim.now f

let inject ?tag ?payload ?size_flits t ~src ~dst =
  match t with
  | C n -> Network.inject ?tag ?payload ?size_flits n ~src ~dst
  | F f -> Flitsim.inject ?tag ?payload ?size_flits f ~src ~dst

let step = function C n -> Network.step n | F f -> Flitsim.step f

let pending = function C n -> Network.pending n | F f -> Flitsim.pending f

type verdict = Idle | Deadlock | Limit of int

let verdict_name = function Idle -> "idle" | Deadlock -> "deadlock" | Limit _ -> "limit"

let pp_verdict ppf = function
  | Idle -> Format.pp_print_string ppf "idle"
  | Deadlock -> Format.pp_print_string ppf "deadlock"
  | Limit n -> Format.fprintf ppf "limit (%d pending)" n

let run_until_idle ?max_cycles t =
  match t with
  | C n -> (
      match Network.run_until_idle ?max_cycles n with
      | `Idle -> Idle
      | `Limit p -> Limit p)
  | F f -> (
      match Flitsim.run_until_idle ?max_cycles f with
      | `Idle -> Idle
      | `Deadlock -> Deadlock
      | `Limit p -> Limit p)

let deliveries = function C n -> Network.deliveries n | F f -> Flitsim.deliveries f

let summary t = Stats.summarize (deliveries t)

let flit_hops = function C n -> Network.flit_hops n | F f -> Flitsim.flit_hops f

let metrics = function C n -> Network.metrics n | F f -> Flitsim.metrics f

let vc_truncated = function C _ -> false | F f -> Flitsim.vc_truncated f

let coarse = function C n -> Some n | F _ -> None
let flitsim = function F f -> Some f | C _ -> None
