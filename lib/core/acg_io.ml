module D = Noc_graph.Digraph

let to_string acg =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# src dst volume bandwidth\n";
  D.fold_vertices
    (fun v () ->
      if D.degree (Acg.graph acg) v = 0 then
        Buffer.add_string buf (Printf.sprintf "vertex %d\n" v))
    (Acg.graph acg) ();
  D.iter_edges
    (fun u v ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d %g\n" u v (Acg.volume acg u v) (Acg.bandwidth acg u v)))
    (Acg.graph acg);
  Buffer.contents buf

exception Parse_error of string

let err lineno col fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "line %d, column %d: %s" lineno col m)))
    fmt

(* Tokens of a line with their 1-based starting columns, so errors point at
   the offending field rather than just the line. *)
let tokenize line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && (line.[!i] = ' ' || line.[!i] = '\t') do incr i done;
    if !i < n then begin
      let start = !i in
      while !i < n && line.[!i] <> ' ' && line.[!i] <> '\t' do incr i done;
      toks := (String.sub line start (!i - start), start + 1) :: !toks
    end
  done;
  List.rev !toks

let parse s =
  try
    let lines = String.split_on_char '\n' s in
    let graph = ref D.empty in
    let volume = ref D.Edge_map.empty and bandwidth = ref D.Edge_map.empty in
    let verts = ref [] in
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        match tokenize line with
        | [] -> ()
        | (t, _) :: _ when String.length t > 0 && t.[0] = '#' -> ()
        | [ ("vertex", _); (v, vcol) ] -> (
            match int_of_string_opt v with
            | Some v -> verts := v :: !verts
            | None -> err lineno vcol "bad vertex id '%s'" v)
        | [ (u, ucol); (v, vcol); (vol, volcol); (bw, bwcol) ] ->
            let u' =
              match int_of_string_opt u with
              | Some x -> x
              | None -> err lineno ucol "bad source vertex '%s'" u
            in
            let v' =
              match int_of_string_opt v with
              | Some x -> x
              | None -> err lineno vcol "bad destination vertex '%s'" v
            in
            let vol' =
              match int_of_string_opt vol with
              | Some x -> x
              | None -> err lineno volcol "bad volume '%s'" vol
            in
            let bw' =
              match float_of_string_opt bw with
              | Some x -> x
              | None -> err lineno bwcol "bad bandwidth '%s'" bw
            in
            if u' = v' then err lineno ucol "self-loop %d -> %d is not a flow" u' v';
            if D.mem_edge !graph u' v' then err lineno ucol "duplicate edge %d -> %d" u' v';
            graph := D.add_edge !graph u' v';
            volume := D.Edge_map.add (u', v') vol' !volume;
            bandwidth := D.Edge_map.add (u', v') bw' !bandwidth
        | (_, col) :: _ ->
            err lineno col "expected 'src dst volume bandwidth' or 'vertex <id>'")
      lines;
    let graph = List.fold_left D.add_vertex !graph !verts in
    Ok (Acg.make ~graph ~volume:!volume ~bandwidth:!bandwidth ())
  with
  | Parse_error m -> Error (`Msg m)
  (* backstop so the Result contract holds even for constraints only the
     graph layer knows about (the line checks above should fire first) *)
  | Invalid_argument m -> Error (`Msg m)

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error (`Msg m)
  | s -> (
      match parse s with
      | Ok acg -> Ok acg
      | Error (`Msg m) -> Error (`Msg (Printf.sprintf "%s: %s" path m)))

let write_file ~path acg =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string acg))

