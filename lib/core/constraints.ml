module Edge_map = Noc_graph.Digraph.Edge_map

type t = {
  link_bandwidth : float;
  max_bisection_links : int;
}

type violation =
  | Link_overload of { link : int * int; demand : float; capacity : float }
  | Bisection_exceeded of { links : int; budget : int }

let of_technology (tech : Noc_energy.Technology.t) =
  {
    link_bandwidth = tech.Noc_energy.Technology.link_bandwidth;
    max_bisection_links = tech.Noc_energy.Technology.max_bisection_links;
  }

let unconstrained = { link_bandwidth = infinity; max_bisection_links = max_int }

let check c acg arch =
  let load = Synthesis.link_load acg arch in
  let overloads =
    Edge_map.fold
      (fun link demand acc ->
        if demand > c.link_bandwidth then
          Link_overload { link; demand; capacity = c.link_bandwidth } :: acc
        else acc)
      load []
  in
  let bisection =
    if c.max_bisection_links = max_int then []
    else begin
      let links = Synthesis.bisection_links arch in
      if links > c.max_bisection_links then
        [ Bisection_exceeded { links; budget = c.max_bisection_links } ]
      else []
    end
  in
  List.rev overloads @ bisection

let satisfied c acg arch = check c acg arch = []

let pp_violation ppf = function
  | Link_overload { link = u, v; demand; capacity } ->
      Format.fprintf ppf "link %d-%d overloaded: demand %.3f > capacity %.3f" u v demand
        capacity
  | Bisection_exceeded { links; budget } ->
      Format.fprintf ppf "bisection needs %d links, budget is %d" links budget
