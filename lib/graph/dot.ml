let to_dot ?(name = "g") ?(undirected = false) g =
  let buf = Buffer.create 1024 in
  let keyword = if undirected then "graph" else "digraph" in
  let arrow = if undirected then "--" else "->" in
  Buffer.add_string buf (Printf.sprintf "%s %s {\n" keyword name);
  List.iter (fun v -> Buffer.add_string buf (Printf.sprintf "  %d;\n" v)) (Digraph.vertex_list g);
  let emit u v = Buffer.add_string buf (Printf.sprintf "  %d %s %d;\n" u arrow v) in
  if undirected then List.iter (fun (u, v) -> emit u v) (Digraph.undirected_edges g)
  else Digraph.iter_edges emit g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file ~path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
