module D = Noc_graph.Digraph
module Flit = Noc_sim.Flitsim

let node_of ~row ~col =
  if row < 0 || row > 3 || col < 0 || col > 3 then
    invalid_arg "Distributed.node_of: row/col in [0,3]";
  (row * 4) + col + 1

let pos_of v =
  if v < 1 || v > 16 then invalid_arg "Distributed.pos_of: node in [1,16]";
  ((v - 1) / 4, (v - 1) mod 4)

(* ShiftRows: state[r][c] <- state[r][(c + r) mod 4], so the node at
   (r, cs) sends its byte to (r, (cs - r) mod 4). *)
let shift_target ~row ~col = node_of ~row ~col:((col - row + 4) mod 4)

let acg () =
  let g = ref D.empty in
  for v = 1 to 16 do
    g := D.add_vertex !g v
  done;
  let volume = ref D.Edge_map.empty in
  let bandwidth = ref D.Edge_map.empty in
  let add_edge u v vol =
    g := D.add_edge !g u v;
    volume := D.Edge_map.add (u, v) vol !volume;
    bandwidth := D.Edge_map.add (u, v) 0.1 !bandwidth
  in
  (* MixColumns: all-to-all within each column, 9 rounds x 8 bits *)
  for col = 0 to 3 do
    for r1 = 0 to 3 do
      for r2 = 0 to 3 do
        if r1 <> r2 then add_edge (node_of ~row:r1 ~col) (node_of ~row:r2 ~col) 72
      done
    done
  done;
  (* ShiftRows: rows 1-3, 10 rounds x 8 bits *)
  for row = 1 to 3 do
    for col = 0 to 3 do
      let dst = shift_target ~row ~col in
      let src = node_of ~row ~col in
      if dst <> src then add_edge src dst 80
    done
  done;
  Noc_core.Acg.make ~graph:!g ~volume:!volume ~bandwidth:!bandwidth ()

(* cycles of local work per step: S-box lookup, GF(2^8) MixColumns math
   and key XOR; a byte message is one header and one payload flit *)
let sub_bytes_cycles = 1
let mix_compute_cycles = 2
let add_key_cycles = 1
let packet_flits = 2

type result = {
  ciphertext : Bytes.t;
  cycles : int;
  summary : Noc_sim.Stats.summary;
  net : Flit.t;
}

let prototype_config arch =
  { (Noc_sim.Engine.prescribed Noc_sim.Engine.Coarse arch) with router_delay = 3 }

(* internal short-circuit for the non-draining path; never escapes [encrypt] *)
exception Undrained of int

let encrypt ?config ?(max_cycles = 1_000_000) ~arch ~key block =
  if Bytes.length key <> 16 then invalid_arg "Distributed.encrypt: need a 16-byte key";
  if Bytes.length block <> 16 then invalid_arg "Distributed.encrypt: need a 16-byte block";
  let config =
    match config with Some c -> c | None -> Noc_sim.Engine.prescribed Noc_sim.Engine.Coarse arch
  in
  let net = Flit.create ~config arch in
  let rks = Aes_core.expand_key key in
  (* node v holds state[r][c]; FIPS flat index of (r, c) is r + 4c *)
  let fips_index v =
    let r, c = pos_of v in
    r + (4 * c)
  in
  let byte = Array.make 17 0 in
  for v = 1 to 16 do
    byte.(v) <- Char.code (Bytes.get block (fips_index v))
  done;
  let local_compute cycles =
    for _ = 1 to cycles do
      Flit.step net
    done
  in
  let add_round_key round =
    for v = 1 to 16 do
      byte.(v) <- byte.(v) lxor Char.code (Bytes.get rks.(round) (fips_index v))
    done;
    local_compute add_key_cycles
  in
  let sub_bytes () =
    for v = 1 to 16 do
      byte.(v) <- Aes_core.sbox byte.(v)
    done;
    local_compute sub_bytes_cycles
  in
  let wait_all () =
    match Flit.run_until_idle ~max_cycles net with
    | `Idle -> ()
    | `Deadlock | `Limit _ -> raise (Undrained (Flit.pending net))
  in
  let shift_rows () =
    for row = 1 to 3 do
      for col = 0 to 3 do
        let src = node_of ~row ~col in
        let dst = shift_target ~row ~col in
        if dst <> src then
          ignore
            (Flit.inject ~tag:src ~size_flits:packet_flits
               ~payload:(Bytes.make 1 (Char.chr byte.(src)))
               net ~src ~dst)
      done
    done;
    wait_all ();
    List.iter
      (fun { Flit.packet; delivered_at = _ } ->
        byte.(packet.Noc_sim.Packet.dst) <-
          Char.code (Bytes.get packet.Noc_sim.Packet.payload 0))
      (Flit.drain_deliveries net)
  in
  let mix_columns () =
    (* every node multicasts its byte to its 3 column mates *)
    for col = 0 to 3 do
      for r1 = 0 to 3 do
        for r2 = 0 to 3 do
          if r1 <> r2 then begin
            let src = node_of ~row:r1 ~col in
            let dst = node_of ~row:r2 ~col in
            ignore
              (Flit.inject ~tag:src ~size_flits:packet_flits
                 ~payload:(Bytes.make 1 (Char.chr byte.(src)))
                 net ~src ~dst)
          end
        done
      done
    done;
    wait_all ();
    (* gather received column bytes at each node *)
    let columns = Array.make 17 [||] in
    for v = 1 to 16 do
      let col = Array.make 4 (-1) in
      let r, _ = pos_of v in
      col.(r) <- byte.(v);
      columns.(v) <- col
    done;
    List.iter
      (fun { Flit.packet; delivered_at = _ } ->
        let src = packet.Noc_sim.Packet.tag and dst = packet.Noc_sim.Packet.dst in
        let sr, _ = pos_of src in
        columns.(dst).(sr) <- Char.code (Bytes.get packet.Noc_sim.Packet.payload 0))
      (Flit.drain_deliveries net);
    for v = 1 to 16 do
      let r, _ = pos_of v in
      let mixed = Aes_core.mix_single_column columns.(v) in
      byte.(v) <- mixed.(r)
    done;
    local_compute mix_compute_cycles
  in
  match
    add_round_key 0;
    for round = 1 to 9 do
      sub_bytes ();
      shift_rows ();
      mix_columns ();
      add_round_key round
    done;
    sub_bytes ();
    shift_rows ();
    add_round_key 10
  with
  | () ->
      let ciphertext = Bytes.create 16 in
      for v = 1 to 16 do
        Bytes.set ciphertext (fips_index v) (Char.chr byte.(v))
      done;
      let summary = Noc_sim.Stats.summarize (Flit.deliveries net) in
      Ok { ciphertext; cycles = Flit.now net; summary; net }
  | exception Undrained pending -> Error (`Undrained pending)

let throughput_mbps ~cycles_per_block ~clock_mhz =
  128.0 *. clock_mhz /. float_of_int cycles_per_block
