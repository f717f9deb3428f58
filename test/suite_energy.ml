(* Tests for the energy substrate: technology tables, the Eq. 1 bit-energy
   model, and the floorplanner. *)

module Tech = Noc_energy.Technology
module Fp = Noc_energy.Floorplan
module Em = Noc_energy.Energy_model
module Edge_map = Noc_graph.Digraph.Edge_map
module Prng = Noc_util.Prng

let t180 = Tech.cmos_180nm

(* -------------------------------------------------------------------- *)
(* Technology                                                            *)

let test_presets () =
  (* the names nocsynth's --tech accepts *)
  Alcotest.(check (list string)) "names" [ "cmos-180nm"; "cmos-130nm"; "cmos-100nm" ]
    (List.map (fun t -> t.Tech.name) Tech.presets);
  Alcotest.(check (list int)) "features" [ 180; 130; 100 ]
    (List.map (fun t -> t.Tech.feature_nm) Tech.presets);
  (* scaling sanity: smaller nodes use less energy per bit *)
  Alcotest.(check bool) "es scales down" true
    (Tech.cmos_100nm.Tech.es_bit < Tech.cmos_130nm.Tech.es_bit
    && Tech.cmos_130nm.Tech.es_bit < t180.Tech.es_bit)

let test_link_energy () =
  (* below one repeater spacing: pure wire *)
  let e1 = Tech.link_energy_per_bit t180 ~length_mm:2.0 in
  Alcotest.(check (float 1e-9)) "2mm wire" (2.0 *. t180.Tech.el_bit_per_mm) e1;
  (* past the spacing: one repeater *)
  let e2 = Tech.link_energy_per_bit t180 ~length_mm:3.0 in
  Alcotest.(check (float 1e-9)) "3mm wire + repeater"
    ((3.0 *. t180.Tech.el_bit_per_mm) +. t180.Tech.e_repeater)
    e2;
  Alcotest.(check (float 1e-9)) "zero length" 0.0 (Tech.link_energy_per_bit t180 ~length_mm:0.0);
  Alcotest.check_raises "negative length"
    (Invalid_argument "Technology.link_energy_per_bit: negative length") (fun () ->
      ignore (Tech.link_energy_per_bit t180 ~length_mm:(-1.0)))

(* -------------------------------------------------------------------- *)
(* Floorplan                                                             *)

let grid16 () = Fp.grid (Fp.uniform_cores ~n:16 ~size_mm:2.0)

let test_grid_placement () =
  let fp = grid16 () in
  Alcotest.(check int) "16 cores" 16 (List.length (Fp.cores fp));
  (* row-major: core 1 at (1,1), core 2 at (3,1), core 5 at (1,3) *)
  let x1, y1 = Fp.position fp 1 in
  Alcotest.(check (float 1e-9)) "core1 x" 1.0 x1;
  Alcotest.(check (float 1e-9)) "core1 y" 1.0 y1;
  let x2, _ = Fp.position fp 2 in
  Alcotest.(check (float 1e-9)) "core2 x" 3.0 x2;
  let _, y5 = Fp.position fp 5 in
  Alcotest.(check (float 1e-9)) "core5 y" 3.0 y5;
  Alcotest.(check bool) "mem" true (Fp.mem fp 16);
  Alcotest.(check bool) "not mem" false (Fp.mem fp 17)

let test_distances () =
  let fp = grid16 () in
  (* horizontal neighbors: one pitch *)
  Alcotest.(check (float 1e-9)) "adjacent" 2.0 (Fp.distance_mm fp 1 2);
  (* diagonal: manhattan sum *)
  Alcotest.(check (float 1e-9)) "diagonal" 4.0 (Fp.distance_mm fp 1 6);
  Alcotest.(check (float 1e-9)) "self" 0.0 (Fp.distance_mm fp 3 3);
  Alcotest.(check (list (float 1e-9))) "path lengths" [ 2.0; 2.0 ]
    (Fp.path_length_mm fp [ 1; 2; 3 ])

let test_area () =
  let fp = grid16 () in
  let w, h = Fp.bounding_box_mm fp in
  Alcotest.(check (float 1e-9)) "width" 8.0 w;
  Alcotest.(check (float 1e-9)) "height" 8.0 h;
  Alcotest.(check (float 1e-9)) "area" 64.0 (Fp.area_mm2 fp)

let test_wirelength () =
  let fp = grid16 () in
  let weights = Edge_map.of_seq (List.to_seq [ ((1, 2), 1.0); ((1, 16), 2.0) ]) in
  (* d(1,2)=2, d(1,16)=12 *)
  Alcotest.(check (float 1e-9)) "weighted sum" (2.0 +. 24.0) (Fp.wirelength fp ~weights)

let test_anneal_improves () =
  (* heavy flows between cores placed far apart: annealing must reduce the
     weighted wirelength *)
  let fp = grid16 () in
  let weights =
    Edge_map.of_seq
      (List.to_seq [ ((1, 16), 10.0); ((4, 13), 10.0); ((2, 15), 10.0); ((3, 14), 10.0) ])
  in
  let before = Fp.wirelength fp ~weights in
  let rng = Prng.create ~seed:11 in
  let fp' = Fp.anneal ~rng ~iterations:3000 ~weights fp in
  let after = Fp.wirelength fp' ~weights in
  Alcotest.(check bool) "improved" true (after < before);
  (* area unchanged: sites are fixed *)
  Alcotest.(check (float 1e-9)) "area preserved" (Fp.area_mm2 fp) (Fp.area_mm2 fp')

let test_anneal_deterministic () =
  let fp = grid16 () in
  let weights = Edge_map.of_seq (List.to_seq [ ((1, 16), 5.0); ((2, 9), 3.0) ]) in
  let a = Fp.anneal ~rng:(Prng.create ~seed:3) ~iterations:500 ~weights fp in
  let b = Fp.anneal ~rng:(Prng.create ~seed:3) ~iterations:500 ~weights fp in
  List.iter
    (fun c ->
      let id = c.Fp.id in
      Alcotest.(check bool) "same position" true (Fp.position a id = Fp.position b id))
    (Fp.cores fp)

(* -------------------------------------------------------------------- *)
(* Energy model (Eq. 1)                                                  *)

let test_hop_count () =
  Alcotest.(check int) "two hops" 2 (Em.hop_count [ 1; 2; 3 ]);
  Alcotest.check_raises "short path" (Invalid_argument "Energy_model.hop_count: path too short")
    (fun () -> ignore (Em.hop_count [ 1 ]))

let test_path_bit_energy () =
  let fp = grid16 () in
  (* direct neighbor: 2 routers + one 2mm link *)
  let e = Em.path_bit_energy ~tech:t180 ~fp [ 1; 2 ] in
  let expect = (2.0 *. t180.Tech.es_bit) +. Tech.link_energy_per_bit t180 ~length_mm:2.0 in
  Alcotest.(check (float 1e-9)) "direct" expect e;
  (* two-hop path: 3 routers + two links *)
  let e2 = Em.path_bit_energy ~tech:t180 ~fp [ 1; 2; 3 ] in
  let expect2 =
    (3.0 *. t180.Tech.es_bit) +. (2.0 *. Tech.link_energy_per_bit t180 ~length_mm:2.0)
  in
  Alcotest.(check (float 1e-9)) "two hops" expect2 e2;
  (* monotone: longer paths cost more *)
  Alcotest.(check bool) "monotone" true (e2 > e)

let test_edge_energy_scales_with_volume () =
  let fp = grid16 () in
  let e1 = Em.edge_energy ~tech:t180 ~fp ~volume_bits:1 [ 1; 2 ] in
  let e128 = Em.edge_energy ~tech:t180 ~fp ~volume_bits:128 [ 1; 2 ] in
  Alcotest.(check (float 1e-6)) "linear in volume" (128.0 *. e1) e128

let test_uniform_bit_energy () =
  let e = Em.uniform_bit_energy ~tech:t180 ~nhops:3 ~link_length_mm:2.0 in
  let expect =
    (3.0 *. t180.Tech.es_bit) +. (2.0 *. Tech.link_energy_per_bit t180 ~length_mm:2.0)
  in
  Alcotest.(check (float 1e-9)) "eq1" expect e;
  Alcotest.check_raises "nhops < 1"
    (Invalid_argument "Energy_model.uniform_bit_energy: nhops < 1") (fun () ->
      ignore (Em.uniform_bit_energy ~tech:t180 ~nhops:0 ~link_length_mm:1.0))

(* Property: path energy equals uniform formula on equal-pitch paths. *)
let qcheck_path_vs_uniform =
  QCheck.Test.make ~name:"grid path energy matches Eq. 1 with uniform links" ~count:50
    QCheck.(int_range 1 3)
    (fun k ->
      let fp = grid16 () in
      (* straight horizontal path 1 -> 2 -> ... of k hops, pitch 2mm *)
      let path = List.init (k + 1) (fun i -> i + 1) in
      let e_path = Em.path_bit_energy ~tech:t180 ~fp path in
      let e_uniform = Em.uniform_bit_energy ~tech:t180 ~nhops:(k + 1) ~link_length_mm:2.0 in
      abs_float (e_path -. e_uniform) < 1e-9)

let suite =
  ( "energy",
    [
      Alcotest.test_case "technology presets" `Quick test_presets;
      Alcotest.test_case "link energy with repeaters" `Quick test_link_energy;
      Alcotest.test_case "grid placement" `Quick test_grid_placement;
      Alcotest.test_case "manhattan distances" `Quick test_distances;
      Alcotest.test_case "bounding box and area" `Quick test_area;
      Alcotest.test_case "weighted wirelength" `Quick test_wirelength;
      Alcotest.test_case "annealing improves wirelength" `Quick test_anneal_improves;
      Alcotest.test_case "annealing deterministic" `Quick test_anneal_deterministic;
      Alcotest.test_case "hop count" `Quick test_hop_count;
      Alcotest.test_case "path bit energy (Eq. 1)" `Quick test_path_bit_energy;
      Alcotest.test_case "energy linear in volume" `Quick test_edge_energy_scales_with_volume;
      Alcotest.test_case "uniform bit energy" `Quick test_uniform_bit_energy;
      QCheck_alcotest.to_alcotest qcheck_path_vs_uniform;
    ] )
