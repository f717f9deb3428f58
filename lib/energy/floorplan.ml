module Vmap = Noc_graph.Digraph.Vmap
module Edge_map = Noc_graph.Digraph.Edge_map
module Prng = Noc_util.Prng

type core = { id : int; width_mm : float; height_mm : float }

type t = { core_list : core list; pos : (float * float) Vmap.t }

let cores fp = fp.core_list

let position fp id =
  match Vmap.find_opt id fp.pos with
  | Some p -> p
  | None -> raise Not_found

let mem fp id = Vmap.mem id fp.pos

let uniform_cores ~n ~size_mm =
  List.init n (fun i -> { id = i + 1; width_mm = size_mm; height_mm = size_mm })

let grid ?cols core_list =
  let n = List.length core_list in
  if n = 0 then { core_list; pos = Vmap.empty }
  else begin
    let cols =
      match cols with
      | Some c when c > 0 -> c
      | Some _ -> invalid_arg "Floorplan.grid: cols must be positive"
      | None -> int_of_float (ceil (sqrt (float_of_int n)))
    in
    let pitch =
      List.fold_left (fun acc c -> max acc (max c.width_mm c.height_mm)) 0.0 core_list
    in
    let pos =
      List.fold_left
        (fun (i, acc) c ->
          let r = i / cols and cl = i mod cols in
          ( i + 1,
            Vmap.add c.id
              ((float_of_int cl *. pitch) +. (pitch /. 2.), (float_of_int r *. pitch) +. (pitch /. 2.))
              acc ))
        (0, Vmap.empty) core_list
      |> snd
    in
    { core_list; pos }
  end

let distance_mm fp a b =
  let xa, ya = position fp a and xb, yb = position fp b in
  abs_float (xa -. xb) +. abs_float (ya -. yb)

let path_length_mm fp path =
  let rec go = function
    | a :: (b :: _ as rest) -> distance_mm fp a b :: go rest
    | [ _ ] | [] -> []
  in
  go path

let bounding_box_mm fp =
  match fp.core_list with
  | [] -> (0., 0.)
  | _ ->
      let min_x, max_x, min_y, max_y =
        List.fold_left
          (fun (mnx, mxx, mny, mxy) c ->
            let x, y = position fp c.id in
            let hw = c.width_mm /. 2. and hh = c.height_mm /. 2. in
            (min mnx (x -. hw), max mxx (x +. hw), min mny (y -. hh), max mxy (y +. hh)))
          (infinity, neg_infinity, infinity, neg_infinity)
          fp.core_list
      in
      (max_x -. min_x, max_y -. min_y)

let area_mm2 fp =
  let w, h = bounding_box_mm fp in
  w *. h

let wirelength fp ~weights =
  Edge_map.fold
    (fun (u, v) w acc ->
      if mem fp u && mem fp v then acc +. (w *. distance_mm fp u v) else acc)
    weights 0.0

let anneal ~rng ?(iterations = 2000) ~weights fp =
  let ids = Array.of_list (List.map (fun c -> c.id) fp.core_list) in
  let n = Array.length ids in
  if n < 2 then fp
  else begin
    let current = ref fp.pos in
    let cost pos = wirelength { fp with pos } ~weights in
    let cur_cost = ref (cost !current) in
    let best = ref !current in
    let best_cost = ref !cur_cost in
    let cooling = 0.01 ** (1.0 /. float_of_int (max 1 iterations)) in
    let temp = ref 1.0 in
    (* normalize acceptance by the initial cost scale *)
    let scale = if !cur_cost > 0. then !cur_cost else 1.0 in
    for _ = 1 to iterations do
      let i = Prng.int rng n and j = Prng.int rng n in
      if i <> j then begin
        let a = ids.(i) and b = ids.(j) in
        let pa = Vmap.find a !current and pb = Vmap.find b !current in
        let candidate = Vmap.add a pb (Vmap.add b pa !current) in
        let c = cost candidate in
        let delta = (c -. !cur_cost) /. scale in
        if delta < 0.0 || Prng.float rng 1.0 < exp (-.delta /. !temp) then begin
          current := candidate;
          cur_cost := c;
          if c < !best_cost then begin
            best := candidate;
            best_cost := c
          end
        end
      end;
      temp := !temp *. cooling
    done;
    { fp with pos = !best }
  end

let pp ppf fp =
  List.iter
    (fun c ->
      let x, y = position fp c.id in
      Format.fprintf ppf "core %d @ (%.2f, %.2f) [%.2fx%.2f mm]@." c.id x y c.width_mm
        c.height_mm)
    fp.core_list
