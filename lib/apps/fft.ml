module D = Noc_graph.Digraph
module Flit = Noc_sim.Flitsim

let pi = 4.0 *. atan 1.0

(* W_n^m = exp(-2*pi*i*m/n); shared by the sequential and distributed
   implementations so both perform bit-identical arithmetic *)
let twiddle n m =
  let angle = -2.0 *. pi *. float_of_int m /. float_of_int n in
  { Complex.re = cos angle; im = sin angle }

let dft x =
  let n = Array.length x in
  Array.init n (fun k ->
      let acc = ref Complex.zero in
      for j = 0 to n - 1 do
        acc := Complex.add !acc (Complex.mul x.(j) (twiddle n (j * k)))
      done;
      !acc)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let bit_reverse width i =
  let r = ref 0 in
  for b = 0 to width - 1 do
    if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (width - 1 - b))
  done;
  !r

let log2 n =
  let rec go acc k = if k >= n then acc else go (acc + 1) (k * 2) in
  go 0 1

let fft x =
  let n = Array.length x in
  if not (is_pow2 n) then invalid_arg "Fft.fft: length must be a power of two";
  let a = Array.copy x in
  let d = ref (n / 2) in
  while !d >= 1 do
    let dd = !d in
    let k = ref 0 in
    while !k < n do
      for j = 0 to dd - 1 do
        let i = !k + j in
        let u = a.(i) and v = a.(i + dd) in
        a.(i) <- Complex.add u v;
        a.(i + dd) <- Complex.mul (Complex.sub u v) (twiddle n (j * (n / (2 * dd))))
      done;
      k := !k + (2 * dd)
    done;
    d := dd / 2
  done;
  let w = log2 n in
  Array.init n (fun m -> a.(bit_reverse w m))

let n_nodes = 16

let acg () =
  let g = ref D.empty in
  let volume = ref D.Edge_map.empty in
  let bandwidth = ref D.Edge_map.empty in
  for v = 1 to n_nodes do
    g := D.add_vertex !g v
  done;
  List.iter
    (fun d ->
      for i = 0 to n_nodes - 1 do
        let p = i lxor d in
        let src = i + 1 and dst = p + 1 in
        g := D.add_edge !g src dst;
        (* one complex sample = two 64-bit floats per stage *)
        volume := D.Edge_map.add (src, dst) 128 !volume;
        bandwidth := D.Edge_map.add (src, dst) 0.2 !bandwidth
      done)
    [ 8; 4; 2; 1 ];
  Noc_core.Acg.make ~graph:!g ~volume:!volume ~bandwidth:!bandwidth ()

type result = {
  output : Complex.t array;
  cycles : int;
  summary : Noc_sim.Stats.summary;
  net : Flit.t;
}

let complex_to_bytes c =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float c.Complex.re);
  Bytes.set_int64_le b 8 (Int64.bits_of_float c.Complex.im);
  b

let complex_of_bytes b =
  {
    Complex.re = Int64.float_of_bits (Bytes.get_int64_le b 0);
    im = Int64.float_of_bits (Bytes.get_int64_le b 8);
  }

let distributed ?config ~arch x =
  if Array.length x <> n_nodes then invalid_arg "Fft.distributed: need 16 samples";
  let config =
    match config with Some c -> c | None -> Noc_sim.Engine.prescribed Noc_sim.Engine.Coarse arch
  in
  let net = Flit.create ~config arch in
  (* value held by node i (0-indexed internally) *)
  let value = Array.copy x in
  let wait_all () =
    match Flit.run_until_idle ~max_cycles:1_000_000 net with
    | `Idle -> ()
    | `Deadlock | `Limit _ -> invalid_arg "Fft.distributed: network failed to drain"
  in
  List.iter
    (fun d ->
      (* every node sends its current value to its stage partner *)
      for i = 0 to n_nodes - 1 do
        let p = i lxor d in
        ignore
          (Flit.inject ~tag:i ~size_flits:2
             ~payload:(complex_to_bytes value.(i))
             net ~src:(i + 1) ~dst:(p + 1))
      done;
      wait_all ();
      let received = Array.make n_nodes Complex.zero in
      List.iter
        (fun { Flit.packet; delivered_at = _ } ->
          received.(packet.Noc_sim.Packet.dst - 1) <-
            complex_of_bytes packet.Noc_sim.Packet.payload)
        (Flit.drain_deliveries net);
      (* butterfly: the low node computes the sum, the high node the
         twiddled difference, exactly as the sequential loop does *)
      for i = 0 to n_nodes - 1 do
        if i land d = 0 then begin
          let u = value.(i) and v = received.(i) in
          value.(i) <- Complex.add u v
        end
        else begin
          let u = received.(i) and v = value.(i) in
          let j = (i - d) mod d in
          let j = if d = 1 then 0 else j in
          value.(i) <-
            Complex.mul (Complex.sub u v) (twiddle n_nodes (j * (n_nodes / (2 * d))))
        end
      done;
      (* two cycles of local arithmetic per stage *)
      Flit.step net;
      Flit.step net)
    [ 8; 4; 2; 1 ];
  let w = log2 n_nodes in
  let output = Array.init n_nodes (fun m -> value.(bit_reverse w m)) in
  {
    output;
    cycles = Flit.now net;
    summary = Noc_sim.Stats.summarize (Flit.deliveries net);
    net;
  }
