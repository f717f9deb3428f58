(* What every workload gives [main.ml]. *)

(* Operation accounting: every workload operation (a request, a
   simulation, a campaign) is one attempt; it fails when the reply is an
   error or any of its correctness checks does.  The first few failure
   messages are kept for the report. *)
module Check = struct
  let attempted = ref 0
  let failed = ref 0
  let messages : string list ref = ref []

  let fail msg =
    incr failed;
    if List.length !messages < 8 then messages := msg :: !messages

  let op ok msg =
    incr attempted;
    if not ok then fail (msg ())
end

type pass = {
  lat_ms : float array;  (** wall time of each operation, in order *)
  fingerprint : string;
      (** digest of the pass's deterministic outputs: identical across the
          passes of a run, traced or not, and across runs of one seed *)
}

type instance = {
  pass : Trace.t -> pass;
      (** one pass over the operation stream; [Trace.off] is the untraced
          run.  A traced serve pass replays the daemon's pipeline and checks
          its bytes against the untraced pass that ran just before it. *)
  quality : unit -> float * float;
      (** [(cost_total, energy_vs_mesh)]: the summed Eq. 4 cost of the
          synthesized architectures and their summed energy over the mesh
          baseline's *)
  record : unit -> (string * float) list;
      (** workload-specific metrics, from the untraced passes so far *)
  layers : Trace.t -> (string * float) list;
      (** per-layer metrics from the traced passes (and traced set-up) *)
}

type t = { name : string; setup : seed:int -> Trace.t -> instance }

let digest_strings xs = Digest.to_hex (Digest.string (String.concat "\x00" xs))
let ns_to_ms ns = Int64.to_float ns /. 1e6

(* wall time of [f ()] in ms on the monotonic clock *)
let time_ms f =
  let t0 = Trace.now () in
  let x = f () in
  (x, ns_to_ms (Int64.sub (Trace.now ()) t0))

let ratio a b = if b = 0.0 then 0.0 else a /. b

module Bb = Noc_core.Branch_bound

(* the search's own counters, summed over the traced searches *)
let count_search tr (st : Bb.stats) =
  Trace.count tr "bb.nodes" (float_of_int st.Bb.nodes);
  Trace.count tr "bb.pruned" (float_of_int st.Bb.pruned);
  Trace.count tr "bb.matches_tried" (float_of_int st.Bb.matches_tried);
  List.iter
    (fun (_, (p : Bb.prim_stats)) ->
      Trace.count tr "bb.attempts" (float_of_int p.Bb.attempts);
      Trace.count tr "bb.hits" (float_of_int p.Bb.hits))
    st.Bb.per_primitive;
  if st.Bb.timed_out then Trace.count tr "bb.truncated" 1.0

let search_layers tr =
  let c = Trace.counted tr in
  let searches = float_of_int (Trace.calls tr "bb.decompose") in
  [
    ("bb.decompose.ms", Trace.ms tr "bb.decompose");
    ("bb.nodes", ratio (c "bb.nodes") searches);
    ("bb.nodes_per_s", ratio (c "bb.nodes") (Trace.total_ms tr "bb.decompose" /. 1e3));
    ("bb.prune_ratio", ratio (c "bb.pruned") (c "bb.matches_tried"));
    ("bb.match_hit_ratio", ratio (c "bb.hits") (c "bb.attempts"));
    ("bb.truncated", ratio (c "bb.truncated") searches);
  ]

let energy backend (scores : Noc_serve.Proto.Response.backend_score list) =
  List.fold_left
    (fun acc (b : Noc_serve.Proto.Response.backend_score) ->
      if b.Noc_serve.Proto.Response.backend = backend then acc +. b.Noc_serve.Proto.Response.energy_pj
      else acc)
    0.0 scores
