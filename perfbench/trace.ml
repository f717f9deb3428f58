(* In-memory span recorder for the traced benchmark run.

   Spans are recorded around calls into the library's public functions,
   never inside them: a span has a name, start and end (monotonic ns), the
   id of the enclosing span and the id of the workload operation it belongs
   to.  Alongside the spans, every layer keeps a running total of its time
   and calls, so per-layer means are read off without walking the list.
   Hot loops (one simulator step per cycle) add to a layer's total with
   [timed] instead of allocating a span each.  The untraced run passes
   [off], on which every function here is a plain call. *)

type span = { id : int; parent : int; op : int; name : string; t0 : int64; t1 : int64 }
type layer = { mutable ns : int64; mutable calls : int }

type t = {
  on : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
  mutable op : int;
  layers : (string, layer) Hashtbl.t;
  counts : (string, float ref) Hashtbl.t;
}

let make on =
  {
    on;
    spans = [];
    next_id = 0;
    stack = [];
    op = -1;
    layers = Hashtbl.create 32;
    counts = Hashtbl.create 32;
  }

let create () = make true
let off = make false
let now = Noc_util.Timer.now_mono_ns

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
      let l = { ns = 0L; calls = 0 } in
      Hashtbl.add t.layers name l;
      l

(* time spent in [name] without a span record or a call *)
let accum t name ns =
  if t.on then
    let l = layer t name in
    l.ns <- Int64.add l.ns ns

let call t name = if t.on then (layer t name).calls <- (layer t name).calls + 1
let set_op t op = if t.on then t.op <- op

let span t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; op = t.op; name; t0; t1 } :: t.spans;
      accum t name (Int64.sub t1 t0);
      call t name
    in
    Fun.protect ~finally:finish f
  end

let timed t name f =
  if not t.on then f ()
  else begin
    let t0 = now () in
    let x = f () in
    accum t name (Int64.sub (now ()) t0);
    x
  end

let count t name v =
  if t.on then
    match Hashtbl.find_opt t.counts name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add t.counts name (ref v)

let counted t name = match Hashtbl.find_opt t.counts name with Some r -> !r | None -> 0.0
let calls t name = match Hashtbl.find_opt t.layers name with Some l -> l.calls | None -> 0

let total_ms t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> Int64.to_float l.ns /. 1e6
  | None -> 0.0

(* mean milliseconds per call; 0 for a layer the run never called *)
let ms t name =
  match calls t name with 0 -> 0.0 | n -> total_ms t name /. float_of_int n

(* Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
   event per span, ids and operation in [args] *)
let write t path =
  let spans = List.rev t.spans in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0L in
  let us ns = Int64.to_float (Int64.sub ns origin) /. 1e3 in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
             \"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
            s.name (us s.t0)
            (Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3)
            s.id s.parent s.op)
        spans;
      output_string oc "]}\n")
