(** Regular-topology alternatives scored against the synthesized custom
    architecture, so every service response is a comparison rather than a
    single point (Section 5.2's mesh baseline, plus a sparse-Hamming-style
    regular graph after Iff et al.).

    All three architectures are scored with the same Eq. 1/Eq. 5 energy
    model on the same shared grid floorplan (cores at identical positions),
    so the numbers are directly comparable. *)

val compare_all :
  Noc_core.Acg.t -> custom:Noc_core.Synthesis.t -> Proto.Response.backend_score list
(** Scores [custom], the mesh and the sparse-Hamming alternative (in that
    order) on a shared 180nm grid floorplan: the
    {!Noc_core.Synthesis.mesh_dims} grid of 2 mm cores, core [v] in row
    [(v-1)/cols] and column [(v-1) mod cols] ([Floorplan.grid]'s
    placement).

    - The mesh is {!Noc_core.Synthesis.mesh} on that grid, with XY
      routing.
    - The sparse-Hamming graph links each core to the cores at
      power-of-two offsets along its row and its column (the
      per-dimension hypercube connectivity a Hamming graph's cliques
      sparsify to).  Routes fix the column first, then the row, taking the
      largest power-of-two step available: at most
      [log2 cols + log2 rows] hops per flow.

    Neither baseline is built: their routes are walked over grid
    coordinates, and every score is bit-identical to building the
    architecture and scoring it with {!Noc_core.Synthesis.link_count},
    [avg_hops], [max_hops] and [total_energy] over that floorplan.
    @raise Invalid_argument if a core id is below 1 or a custom route
    leaves the grid. *)
