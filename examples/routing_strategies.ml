(* Routing-strategy exploration — the paper's Section 6 future work:
   "the possibility of using adaptive or stochastic routing strategies
   should be investigated."

   The distributed AES block is encrypted on both the customized
   architecture and the 4x4 mesh under two routing policies of the flit
   engine:
     fixed      - the paper's setting (XY / schedule-derived tables)
     oblivious  - minimal stochastic (each packet draws one minimal path
                  at injection, uniformly over minimal next hops)

   Run with: dune exec examples/routing_strategies.exe *)

module Dist = Noc_aes.Distributed

let ok_encrypt = function
  | Ok r -> r
  | Error (`Undrained n) ->
      failwith (Printf.sprintf "distributed AES did not drain: %d packets pending" n)
module Flit = Noc_sim.Flitsim
module Syn = Noc_core.Synthesis

(* the 3-cycle router pipeline of the AES table; a drawn minimal path is
   not one of the analyzed routes, so the lanes cover any minimal path:
   one per hop of the longest *)
let config arch =
  let num_vcs =
    max (Dist.prototype_config arch).Flit.num_vcs
      (Option.value ~default:1 (Noc_graph.Traversal.diameter arch.Syn.topology))
  in
  { (Dist.prototype_config arch) with num_vcs }

let drain net = match Flit.run_until_idle net with `Idle -> () | _ -> failwith "hang"

let () =
  let acg = Dist.acg () in
  let library = Noc_primitives.Library.default () in
  let d, _ = Noc_core.Branch_bound.decompose ~library acg in
  let custom = Syn.custom acg d in
  let mesh = Syn.mesh ~rows:4 ~cols:4 acg in
  let key = Noc_aes.Aes_core.of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt = Noc_aes.Aes_core.of_hex "00112233445566778899aabbccddeeff" in
  let expect = Noc_aes.Aes_core.encrypt_block ~key pt in
  Format.printf "%-12s %-10s %14s %12s@." "arch" "routing" "cycles/block" "avg latency";
  (* --- fixed policy: the full bit-exact encryption --- *)
  List.iter
    (fun (arch_name, arch) ->
      let r = ok_encrypt (Dist.encrypt ~config:(Dist.prototype_config arch) ~arch ~key pt) in
      assert (Bytes.equal r.Dist.ciphertext expect);
      Format.printf "%-12s %-10s %14d %12.2f@." arch_name "fixed" r.Dist.cycles
        r.Dist.summary.Noc_sim.Stats.avg_latency)
    [ ("mesh", mesh); ("customized", custom) ];
  (* --- fixed / oblivious: same offered traffic, phase-level replay --- *)
  let phase_traffic arch policy =
    let net = Flit.create ~config:(config arch) ~policy arch in
    (* one AES round's communication: ShiftRows then MixColumns bursts *)
    let burst flows =
      List.iter (fun (src, dst) -> ignore (Flit.inject ~size_flits:2 net ~src ~dst)) flows;
      drain net
    in
    let shift_flows =
      List.concat_map
        (fun row ->
          List.filter_map
            (fun col ->
              let src = Dist.node_of ~row ~col in
              let dst = Dist.node_of ~row ~col:((col - row + 4) mod 4) in
              if src <> dst then Some (src, dst) else None)
            [ 0; 1; 2; 3 ])
        [ 1; 2; 3 ]
    in
    let mix_flows =
      List.concat_map
        (fun col ->
          List.concat_map
            (fun r1 ->
              List.filter_map
                (fun r2 ->
                  if r1 <> r2 then
                    Some (Dist.node_of ~row:r1 ~col, Dist.node_of ~row:r2 ~col)
                  else None)
                [ 0; 1; 2; 3 ])
            [ 0; 1; 2; 3 ])
        [ 0; 1; 2; 3 ]
    in
    for _ = 1 to 10 do
      burst shift_flows;
      burst mix_flows
    done;
    let s = Noc_sim.Stats.summarize (Flit.deliveries net) in
    (Flit.now net, s.Noc_sim.Stats.avg_latency)
  in
  List.iter
    (fun (arch_name, arch) ->
      List.iter
        (fun (pol_name, policy) ->
          let cycles, lat = phase_traffic arch policy in
          Format.printf "%-12s %-10s %14d %12.2f@." arch_name pol_name cycles lat)
        [ ("fixed*", Flit.Fixed); ("oblivious", Flit.Oblivious (Noc_util.Prng.create ~seed:7)) ])
    [ ("mesh", mesh); ("customized", custom) ];
  Format.printf
    "@.(fixed = full bit-exact encryption; fixed*/oblivious replay the@.\
    \ per-round communication bursts only, so compare within the starred rows)@.";
  (* AES flows are row/column aligned, so on the mesh they have a single
     minimal path - itself a finding.  Transpose traffic (node (r,c) ->
     node (c,r)) has many minimal paths and shows the difference. *)
  Format.printf "@.transpose traffic on the 4x4 mesh (8 bursts of 12 diagonal flows):@.";
  Format.printf "%-10s %10s %12s@." "routing" "cycles" "avg latency";
  let transpose_flows =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun c ->
            if r <> c then Some (Dist.node_of ~row:r ~col:c, Dist.node_of ~row:c ~col:r)
            else None)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let diag_acg =
    Noc_core.Acg.uniform ~volume:8 ~bandwidth:0.1
      (Noc_graph.Digraph.of_edges transpose_flows)
  in
  let mesh_diag = Syn.mesh ~rows:4 ~cols:4 diag_acg in
  List.iter
    (fun (pol_name, policy) ->
      let net = Flit.create ~config:(config mesh_diag) ~policy mesh_diag in
      for _ = 1 to 8 do
        List.iter
          (fun (src, dst) -> ignore (Flit.inject ~size_flits:2 net ~src ~dst))
          transpose_flows;
        drain net
      done;
      let s = Noc_sim.Stats.summarize (Flit.deliveries net) in
      Format.printf "%-10s %10d %12.2f@." pol_name (Flit.now net)
        s.Noc_sim.Stats.avg_latency)
    [ ("fixed", Flit.Fixed); ("oblivious", Flit.Oblivious (Noc_util.Prng.create ~seed:7)) ];
  (* a burst on a single two-path flow: fixed XY forces every packet over
     the same channels, oblivious routing spreads the burst over both
     minimal paths; on the byte-serial Flit preset a link needs 4 cycles
     per flit while the source NI injects one flit a cycle, so the links
     are the bottleneck and the split shows *)
  Format.printf "@.burst of 8 x 4-flit packets, corner to corner on a 2x2 mesh:@.";
  let one_flow =
    Noc_core.Acg.uniform ~volume:8 ~bandwidth:0.1 (Noc_graph.Digraph.of_edges [ (1, 4) ])
  in
  let mesh22 = Syn.mesh ~rows:2 ~cols:2 one_flow in
  List.iter
    (fun (pol_name, policy) ->
      let net = Flit.create ~config:(Noc_sim.Engine.config Noc_sim.Engine.Flit) ~policy mesh22 in
      for _ = 1 to 8 do
        ignore (Flit.inject ~size_flits:4 net ~src:1 ~dst:4)
      done;
      drain net;
      Format.printf "  %-10s drains in %d cycles@." pol_name (Flit.now net))
    [ ("fixed", Flit.Fixed); ("oblivious", Flit.Oblivious (Noc_util.Prng.create ~seed:7)) ]
