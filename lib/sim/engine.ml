type kind = Coarse | Flit

let all_kinds = [ Coarse; Flit ]

let kind_name = function Coarse -> "coarse" | Flit -> "flit"

let kind_of_name = function "coarse" -> Some Coarse | "flit" -> Some Flit | _ -> None

let config = function
  | Flit -> Flitsim.default_config
  | Coarse -> { Flitsim.default_config with flit_bits = 8; phit_bits = 8 }

let prescribed kind arch =
  let lanes = Noc_core.Deadlock.analyze arch in
  { (config kind) with num_vcs = lanes.Noc_core.Deadlock.vcs_needed }

type t = Flitsim.t

let create kind arch = Flitsim.create ~config:(config kind) arch
let inject = Flitsim.inject
let step = Flitsim.step
let now = Flitsim.now
let flit_hops = Flitsim.flit_hops

type verdict = Idle | Deadlock | Limit of int

let verdict_name = function Idle -> "idle" | Deadlock -> "deadlock" | Limit _ -> "limit"

let run_until_idle ?max_cycles t =
  match Flitsim.run_until_idle ?max_cycles t with
  | `Idle -> Idle
  | `Deadlock -> Deadlock
  | `Limit p -> Limit p

let summary t = Stats.summarize (Flitsim.deliveries t)
let flitsim t = Some t
