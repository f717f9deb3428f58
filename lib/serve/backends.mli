(** Regular-topology alternatives scored against the synthesized custom
    architecture, so every service response is a comparison rather than a
    single point (Section 5.2's mesh baseline, plus a sparse-Hamming-style
    regular graph after Iff et al.).

    All three architectures are scored with the same Eq. 1/Eq. 5 energy
    model on the same shared grid floorplan (cores at identical positions),
    so the numbers are directly comparable. *)

val mesh : Noc_core.Acg.t -> Noc_core.Synthesis.t
(** The standard 2D-mesh baseline ({!Noc_core.Synthesis.mesh}) on the
    {!Noc_core.Synthesis.mesh_dims} grid, with XY routing. *)

val sparse_hamming : Noc_core.Acg.t -> Noc_core.Synthesis.t
(** A sparse-Hamming-style regular topology on the same grid: cores are
    placed row-major and linked to the cores at power-of-two offsets along
    their row and their column (the per-dimension hypercube connectivity a
    Hamming graph's cliques sparsify to).  Routes fix the column first,
    then the row, taking the largest power-of-two step available — a
    deterministic greedy that needs at most [log2 cols + log2 rows] hops
    per flow. *)

val score :
  tech:Noc_energy.Technology.t ->
  fp:Noc_energy.Floorplan.t ->
  name:string ->
  Noc_core.Acg.t ->
  Noc_core.Synthesis.t ->
  Proto.Response.backend_score

val compare_all :
  Noc_core.Acg.t -> custom:Noc_core.Synthesis.t -> Proto.Response.backend_score list
(** Scores [custom], the mesh and the sparse-Hamming alternative (in that
    order) on a shared 180nm grid floorplan. *)
