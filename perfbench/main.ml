(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Builds the workload's inputs from the seed (set-up, repeated and timed
   apart), then runs closed-loop passes over the operation stream until S
   seconds have passed and, untraced, at least [min_ops] operations have
   run, so that p99 has ten samples beyond it.  Every operation's output is
   checked.  With --trace 1 each pass is run twice, untraced and then
   traced, and the per-layer metrics replace the end-to-end ones; the spans
   are written to perfbench/out/<workload>.trace.json.

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; the line before it is the
   full record of the run. *)

open Workload

let workloads =
  [ Serve_wl.serve_hot; Serve_wl.synth_cold; Sim_wl.sim_sweep; Sim_wl.fault_campaign ]

let end_to_end =
  [
    ("setup_s", "s");
    ("rps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("latency_p99_ms", "ms");
    ("cost_total", "cost");
    ("energy_vs_mesh", "ratio");
    ("max_rss_mb", "MB");
  ]

let per_layer =
  [
    ("acg_io.parse.ms", "ms");
    ("canon.hash.ms", "ms");
    ("canon.hash.calls", "count");
    ("canon.form.ms", "ms");
    ("canon.form.calls", "count");
    ("cache.find.ms", "ms");
    ("cache.add.ms", "ms");
    ("cache.hit_ratio", "ratio");
    ("bb.decompose.ms", "ms");
    ("bb.nodes", "count");
    ("bb.nodes_per_s", "1/s");
    ("bb.prune_ratio", "ratio");
    ("bb.match_hit_ratio", "ratio");
    ("bb.truncated", "ratio");
    ("synthesis.custom.ms", "ms");
    ("backends.compare_all.ms", "ms");
    ("proto.encode.ms", "ms");
    ("daemon.solve.ms", "ms");
    ("daemon.unattributed_ms", "ms");
    ("trace.overhead_ms", "ms");
    ("deadlock.analyze.ms", "ms");
    ("engine.create.ms", "ms");
    ("engine.inject.ms", "ms");
    ("engine.step.light.ms", "ms");
    ("engine.step.saturated.ms", "ms");
    ("engine.cycles", "count");
    ("engine.flit_hops", "count");
    ("campaign.run.ms", "ms");
    ("campaign.runs", "count");
    ("campaign.retries", "count");
    ("campaign.stranded", "count");
    ("sim_cycles_per_s", "1/s");
    ("flit_hops_per_s", "1/s");
    ("sim_latency_cycles", "cycles");
    ("sim_throughput", "flits/cycle");
    ("fault_runs_per_s", "1/s");
    ("min_delivered_fraction", "ratio");
  ]

(* Host speed on a shared machine drifts in spells of a fraction of a
   second to a few seconds.  Repeated timings (set-ups, passes) are pooled
   in order into windows of at least [window_s] seconds and the median
   window is reported: a window averages over short spells, and the median
   ignores a spell that covers less than half the windows. *)
let window_s = 1.0

(* set-up repeats at least [min_setups] times and for at least
   [min_setup_s], so that its median rests on several windows however long
   or short one set-up is *)
let min_setups = 5
let min_setup_s = 3.0
let min_ops = 1000

(* a run must end well inside three minutes, whatever the machine *)
let max_loop_s = 120.0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [samples] are (items, seconds) in the order measured; the seconds per
   item of the median window.  A tail shorter than a window joins none,
   unless it is all there is. *)
let windowed_median samples =
  let rec go windows n s = function
    | [] -> if windows = [] && n > 0 then [ s /. float_of_int n ] else windows
    | (n', s') :: rest ->
        let n = n + n' and s = s +. s' in
        if s >= window_s then go ((s /. float_of_int n) :: windows) 0 0.0 rest
        else go windows n s rest
  in
  median (go [] 0 0.0 samples)

(* nearest rank on the sorted samples *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let max_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                    Some (float_of_int kb /. 1024.0))
            | Some _ -> scan ()
          in
          scan ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let json_str s = Noc_obs.Obs.Json.(to_string (Str s))

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics units values =
  String.concat ","
    (List.map
       (fun (name, unit) ->
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_str name)
           (json_num (Option.value ~default:0.0 (List.assoc_opt name values)))
           (json_str unit))
       units)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of the workloads");
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--seconds", Arg.Set_int seconds, "S  measured time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run (default 0)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; expected one of: %s\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  let traced = !trace <> 0 in
  let tr = if traced then Trace.create () else Trace.off in
  (* set-up: input generation, text rendering, architecture builds; the
     last repetition is the one traced and kept.  No full major collection
     runs between repetitions: on OCaml 5.1, some hundreds of them left the
     timed loop with a 300 MB peak RSS and a quarter less rps. *)
  let rec set_up times qualities =
    let last =
      List.length times + 1 >= min_setups && List.fold_left ( +. ) 0.0 times >= min_setup_s
    in
    let inst, ms = time_ms (fun () -> w.setup ~seed:!seed (if last then tr else Trace.off)) in
    (* only the kept instance stays live, so max_rss_mb holds one set-up *)
    let times = (ms /. 1e3) :: times and qualities = inst.quality () :: qualities in
    if last then (inst, times, qualities) else set_up times qualities
  in
  Gc.full_major ();
  let inst, times, qualities = set_up [] [] in
  let setup_s = windowed_median (List.rev_map (fun t -> (1, t)) times) in
  (* sim/fault quality comes from set-up: traced and untraced builds agree *)
  if List.exists (( <> ) (List.hd qualities)) qualities then
    Check.fail "set-up repetitions built different architectures";
  Gc.compact ();
  let untraced = ref [] and traced_lat = ref [] and fingerprints = ref [] and pass_s = ref [] in
  let ops = ref 0 and passes = ref 0 in
  let t0 = Trace.now () in
  let elapsed () = ns_to_ms (Int64.sub (Trace.now ()) t0) /. 1e3 in
  while
    !passes = 0
    || (elapsed () < float_of_int !seconds || ((not traced) && !ops < min_ops))
       && elapsed () < max_loop_s
  do
    let p, ms = time_ms (fun () -> inst.pass Trace.off) in
    pass_s := (Array.length p.lat_ms, ms /. 1e3) :: !pass_s;
    untraced := p.lat_ms :: !untraced;
    fingerprints := p.fingerprint :: !fingerprints;
    ops := !ops + Array.length p.lat_ms;
    incr passes;
    if traced then begin
      let q = inst.pass tr in
      traced_lat := q.lat_ms :: !traced_lat;
      fingerprints := q.fingerprint :: !fingerprints
    end
  done;
  let loop_s = elapsed () in
  if List.exists (fun f -> f <> List.hd !fingerprints) !fingerprints then
    Check.fail "passes disagree on the deterministic outputs";
  let lat = Array.concat !untraced in
  Array.sort compare lat;
  let mean a = ratio (Array.fold_left ( +. ) 0.0 a) (float_of_int (Array.length a)) in
  let cost_total, energy_vs_mesh = inst.quality () in
  let e2e =
    [
      ("setup_s", setup_s);
      ("rps", 1.0 /. windowed_median (List.rev !pass_s));
      ("latency_p50_ms", percentile lat 0.50);
      ("latency_p90_ms", percentile lat 0.90);
      ("latency_p99_ms", percentile lat 0.99);
      ("cost_total", cost_total);
      ("energy_vs_mesh", energy_vs_mesh);
      ("max_rss_mb", max_rss_mb ());
    ]
  in
  let layers =
    if not traced then []
    else
      ("trace.overhead_ms", mean (Array.concat !traced_lat) -. mean lat) :: inst.layers tr
  in
  let trace_file =
    if traced && Sys.file_exists "perfbench" then begin
      let dir = Filename.concat "perfbench" "out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (w.name ^ ".trace.json") in
      Trace.write tr path;
      Some path
    end
    else None
  in
  let attempted = !Check.attempted and failed = !Check.failed in
  let values = e2e @ inst.record () @ layers in
  (* the full record: every measured value, the sample counts behind the
     percentiles, the failures, and the queueing time, which is zero by
     construction (one closed-loop client, no queue in front of any layer) *)
  Printf.printf
    "{\"workload\":%s,\"seed\":%d,\"trace\":%b,\"passes\":%d,\"operations\":%d,\
     \"loop_s\":%s,\"samples_beyond_p99\":%d,\"error_rate\":%s,\"wait_ms\":0,\
     \"spans\":%s,\"failures\":[%s],\"record\":{%s}}\n"
    (json_str w.name) !seed traced !passes !ops (json_num loop_s)
    (Array.length lat - int_of_float (Float.ceil (0.99 *. float_of_int (Array.length lat))))
    (json_num (ratio (float_of_int failed) (float_of_int (max 1 attempted))))
    (match trace_file with Some p -> json_str p | None -> "null")
    (String.concat "," (List.rev_map json_str !Check.messages))
    (String.concat ","
       (List.map (fun (n, v) -> json_str n ^ ":" ^ json_num v) values));
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (failed = 0 && attempted > 0)
    (max 1 attempted) failed
    (json_metrics (if traced then per_layer else end_to_end) values)
