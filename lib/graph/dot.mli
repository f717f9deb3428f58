(** Graphviz DOT export for inspection of ACGs and synthesized topologies. *)

val to_dot : ?name:string -> ?undirected:bool -> Digraph.t -> string
(** [to_dot g] renders [g] as a DOT digraph of unlabeled vertices and
    edges.  With [~undirected:true], pairs of antiparallel edges are merged
    into a single undirected edge ({!Digraph.undirected_edges}) and the
    output is a DOT [graph]. *)

val write_file : path:string -> string -> unit
(** Writes a DOT string to a file. *)
