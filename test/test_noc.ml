(* The suite exercises the multi-domain paths of the work-stealing pool
   (the parallel search and Ws.map) even on single-core CI boxes: lift the
   recommended-domain-count clamp so ~domains:4 really runs 4 workers
   (oversubscribed, but correct). *)
let () = Unix.putenv "NOCSYNTH_MAX_DOMAINS" "8"

let () =
  Alcotest.run "noc"
    [
      Suite_util.suite;
      Suite_graph.suite;
      Suite_tgff.suite;
      Suite_primitives.suite;
      Suite_energy.suite;
      Suite_core.suite;
      Suite_scale.suite;
      Suite_obs.suite;
      Suite_oracle.suite;
      Suite_explore.suite;
      Suite_sim.suite;
      Suite_flit.suite;
      Suite_resil.suite;
      Suite_aes.suite;
      Suite_apps.suite;
      Suite_benchkit.suite;
      Suite_serve.suite;
    ]
