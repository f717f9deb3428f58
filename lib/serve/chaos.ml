module Bb = Noc_core.Branch_bound
module Acg = Noc_core.Acg
module Prng = Noc_util.Prng
module Obs = Noc_obs.Obs
module J = Obs.Json

(* One chaos request.  Request-shaped specs ride the batching path (where
   admission shedding lives); text-shaped ones go through [solve_text],
   the same funnel a service line takes. *)
type spec =
  | Well_formed of { base : int; permuted : bool }
  | Starved_dead of int  (* declared timeout 0: dead on arrival *)
  | Starved_tiny of int  (* 1 ms deadline: anytime fallback territory *)
  | Garbage of int
  | Self_loop
  | Oversized
  | Unknown_library of int
  | Injected of int

type stats = {
  requests : int;
  replies : int;
  ok : int;
  deaths : int;
  bad_request : int;
  over_budget : int;
  shed : int;
  internal : int;
  class_mismatches : int;
  unparsed_replies : int;
  hit_consistent : bool;
  byte_identical : bool;
  well_formed : int;
  well_formed_hits : int;
  well_formed_hit_rate : float;
  malformed_frac : float;
  starved_frac : float;
  injected_frac : float;
  wall_s : float;
  rps : float;
}

(* a cheap ACG above any reasonable core limit: a directed path *)
let oversized_acg n =
  Acg.of_weighted_edges (List.init (n - 1) (fun i -> (i + 1, i + 2, 1, 0.5)))

let garbage_text ~rng k =
  (* leading \255 can never start a valid token, so the parse error is
     certain whatever the tail bytes are *)
  let len = 1 + Prng.int rng (40 + (k mod 7)) in
  String.init len (fun i -> if i = 0 then '\255' else Char.chr (Prng.int rng 256))

(* the composition is computed by exact counts, not per-spec coin flips,
   so the fractions (24% malformed, 12% starved, 6% injected) hold for any
   stream length *)
let build_stream ~rng ~requests ~pool ~injected_pool =
  let n = requests in
  let count frac = int_of_float (ceil (frac *. float_of_int n)) in
  let n_malformed = count 0.24 in
  let n_starved = count 0.12 in
  let n_injected = count 0.06 in
  let quarter k = (n_malformed + k) / 4 in
  let specs = ref [] in
  let push s = specs := s :: !specs in
  for k = 0 to quarter 3 - 1 do push (Garbage k) done;
  for _ = 1 to quarter 2 do push Self_loop done;
  for _ = 1 to quarter 1 do push Oversized done;
  for k = 0 to quarter 0 - 1 do push (Unknown_library (k mod pool)) done;
  for k = 0 to n_starved - 1 do
    push (if k mod 2 = 0 then Starved_dead (k mod pool) else Starved_tiny (k mod pool))
  done;
  for k = 0 to n_injected - 1 do push (Injected (k mod injected_pool)) done;
  let rest = max 0 (n - List.length !specs) in
  for k = 0 to rest - 1 do
    push (Well_formed { base = Prng.int rng pool; permuted = k mod 3 = 2 })
  done;
  let arr = Array.of_list !specs in
  Prng.shuffle rng arr;
  Array.to_list arr

type expected = E_ok | E_bad_request | E_over_budget | E_internal | E_shed

let expected_of_spec = function
  | Well_formed _ | Starved_tiny _ -> E_ok
  | Starved_dead _ -> E_over_budget
  | Garbage _ | Self_loop | Oversized | Unknown_library _ -> E_bad_request
  | Injected _ -> E_internal

let run ?(seed = 42) ?(requests = 1000) ?(max_inflight = 8)
    ?(cache_capacity = 256) ?(pool = 16) ?(wf_timeout_s = 0.25)
    ?(observe = Obs.disabled) () =
  let rng = Prng.create ~seed in
  let injected_pool = 8 in
  let bases = Array.init pool (fun _ -> Noc_oracle.Fuzz.gen_acg ~rng) in
  let injected_bases =
    Array.init injected_pool (fun _ -> Noc_oracle.Fuzz.gen_acg ~rng)
  in
  let stream = build_stream ~rng ~requests:(max 1 requests) ~pool ~injected_pool in
  let requests = List.length stream in
  let arm = ref false in
  let config =
    { Daemon.max_inflight; max_cores = 32; max_request_bytes = 4096; max_timeout_s = Some 2.0 }
  in
  let daemon =
    Daemon.create ~cache_capacity ~config ~fault_hook:(fun () -> !arm) ~observe ()
  in
  let wf_budget = Bb.Budget.(default |> with_timeout_s (Some wf_timeout_s)) in
  let tiny_budget = Bb.Budget.(default |> with_timeout_s (Some 0.001)) in
  let dead_budget = Bb.Budget.(default |> with_timeout_s (Some 0.0)) in
  let request_of_spec = function
    | Well_formed { base; permuted } ->
        let acg = bases.(base) in
        let acg = if permuted then Replay.permute ~rng acg else acg in
        Some (Proto.Request.make ~budget:wf_budget acg)
    | Starved_tiny base -> Some (Proto.Request.make ~budget:tiny_budget bases.(base))
    | Starved_dead base -> Some (Proto.Request.make ~budget:dead_budget bases.(base))
    | Oversized -> Some (Proto.Request.make ~budget:wf_budget (oversized_acg 40))
    | Unknown_library base ->
        Some (Proto.Request.make ~library:"no-such-library" ~budget:wf_budget bases.(base))
    | Injected base -> Some (Proto.Request.make ~budget:wf_budget injected_bases.(base))
    | Garbage _ | Self_loop -> None
  in
  let text_of_spec ~rng = function
    | Garbage k -> garbage_text ~rng k
    | Self_loop -> "3 3 5 1.0\n"
    | _ -> assert false
  in
  (* accounting *)
  let replies = ref 0 and ok = ref 0 and deaths = ref 0 in
  let bad_request = ref 0 and over_budget = ref 0 and shed = ref 0 and internal = ref 0 in
  let class_mismatches = ref 0 and unparsed = ref 0 in
  let hit_consistent = ref true and byte_identical = ref true in
  let wf_total = ref 0 and wf_hits = ref 0 in
  let seen : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let record_reply ~spec ~expect (r : Daemon.reply) =
    incr replies;
    (* every reply must render to a wire line a client can parse back *)
    let wire =
      match r with
      | Ok o ->
          J.to_string (J.Obj [ ("id", J.Str o.Daemon.request_id);
                               ("response", Proto.Response.to_json o.Daemon.response) ])
      | Error e -> J.to_string (J.Obj [ ("error", Proto.Error.to_json e) ])
    in
    (match J.parse wire with Ok _ -> () | Error _ -> incr unparsed);
    let got =
      match r with
      | Ok _ -> E_ok
      | Error (Proto.Error.Bad_request _) -> E_bad_request
      | Error (Proto.Error.Over_budget _) -> E_over_budget
      | Error (Proto.Error.Shed _) -> E_shed
      | Error (Proto.Error.Internal _) -> E_internal
    in
    (match got with
    | E_ok -> incr ok
    | E_bad_request -> incr bad_request
    | E_over_budget -> incr over_budget
    | E_shed -> incr shed
    | E_internal -> incr internal);
    if got <> expect then incr class_mismatches;
    (* the well-formed subset keeps its cache contract under chaos: a key
       seen before must hit with the first miss's exact bytes, a fresh key
       must miss *)
    match (r, spec) with
    | Ok o, (Well_formed _ | Starved_tiny _) -> (
        incr wf_total;
        match Hashtbl.find_opt seen o.Daemon.key with
        | Some first ->
            if o.Daemon.status <> Daemon.Hit then hit_consistent := false;
            incr wf_hits;
            if not (String.equal first o.Daemon.bytes) then byte_identical := false
        | None ->
            if o.Daemon.status <> Daemon.Miss then hit_consistent := false;
            Hashtbl.replace seen o.Daemon.key o.Daemon.bytes)
    | _ -> ()
  in
  let dispatch_batch batch =
    (* batch = (spec, request) list in submission order; the daemon sheds
       members beyond max_inflight, which is then their expected class *)
    let specs = List.map fst batch in
    match Daemon.serve_batch daemon (List.map snd batch) with
    | rs ->
        List.iteri
          (fun i (spec, r) ->
            let expect = if i >= max_inflight then E_shed else expected_of_spec spec in
            record_reply ~spec ~expect r)
          (List.combine specs rs)
    | exception _ -> deaths := !deaths + List.length batch
  in
  let run_stream () =
    let batch = ref [] and batch_len = ref 0 in
    let target = ref (1 + Prng.int rng (2 * max_inflight)) in
    let flush () =
      if !batch <> [] then begin
        dispatch_batch (List.rev !batch);
        batch := [];
        batch_len := 0;
        target := 1 + Prng.int rng (2 * max_inflight)
      end
    in
    List.iter
      (fun spec ->
        match spec with
        (* text-shaped and fault-injected specs dispatch solo without
           flushing the pending batch — they never touch the batch state,
           and keeping the batch open lets it actually reach targets
           beyond [max_inflight], which is what exercises shedding *)
        | Garbage _ | Self_loop -> (
            let text = text_of_spec ~rng spec in
            match Daemon.solve_text daemon ~id:"chaos" text with
            | r -> record_reply ~spec ~expect:(expected_of_spec spec) r
            | exception _ -> incr deaths)
        | Injected _ -> (
            (* the fault window covers exactly this request *)
            arm := true;
            let r =
              match request_of_spec spec with
              | Some req -> ( try Some (Daemon.solve daemon req) with _ -> None)
              | None -> None
            in
            arm := false;
            match r with
            | Some r -> record_reply ~spec ~expect:E_internal r
            | None -> incr deaths)
        | _ -> (
            match request_of_spec spec with
            | Some req ->
                batch := (spec, req) :: !batch;
                incr batch_len;
                if !batch_len >= !target then flush ()
            | None -> assert false))
      stream;
    flush ()
  in
  let (), wall_s = Noc_util.Timer.time run_stream in
  let count p = List.length (List.filter p stream) in
  let frac k = float_of_int k /. float_of_int requests in
  {
    requests;
    replies = !replies;
    ok = !ok;
    deaths = !deaths;
    bad_request = !bad_request;
    over_budget = !over_budget;
    shed = !shed;
    internal = !internal;
    class_mismatches = !class_mismatches;
    unparsed_replies = !unparsed;
    hit_consistent = !hit_consistent;
    byte_identical = !byte_identical;
    well_formed = !wf_total;
    well_formed_hits = !wf_hits;
    well_formed_hit_rate =
      (if !wf_total = 0 then 0.0 else float_of_int !wf_hits /. float_of_int !wf_total);
    malformed_frac =
      frac
        (count (function
          | Garbage _ | Self_loop | Oversized | Unknown_library _ -> true
          | _ -> false));
    starved_frac =
      frac (count (function Starved_dead _ | Starved_tiny _ -> true | _ -> false));
    injected_frac = frac (count (function Injected _ -> true | _ -> false));
    wall_s;
    rps = (if wall_s > 0.0 then float_of_int requests /. wall_s else 0.0);
  }

let gate s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if s.deaths > 0 then fail "%d request(s) killed the daemon" s.deaths
  else if s.replies <> s.requests then
    fail "%d requests but only %d typed replies" s.requests s.replies
  else if s.unparsed_replies > 0 then
    fail "%d reply/replies did not parse back as JSON" s.unparsed_replies
  else if s.class_mismatches > 0 then
    fail "%d reply/replies had an unexpected error class" s.class_mismatches
  else if not s.hit_consistent then
    fail "well-formed subset lost its cache hit pattern under chaos"
  else if not s.byte_identical then
    fail "a well-formed cache hit was not byte-identical to its first miss"
  else if s.malformed_frac < 0.2 then
    fail "malformed fraction %.2f below the 0.20 floor" s.malformed_frac
  else if s.starved_frac < 0.1 then
    fail "starved fraction %.2f below the 0.10 floor" s.starved_frac
  else if s.injected_frac < 0.05 then
    fail "injected-fault fraction %.2f below the 0.05 floor" s.injected_frac
  else Ok ()

let pp ppf s =
  Format.fprintf ppf
    "@[<v>chaos: %d requests in %.3f s = %.1f req/s, %d daemon death(s)@ replies: %d \
     ok / %d bad_request / %d over_budget / %d shed / %d internal (%d typed of %d)@ \
     mix: %.0f%% malformed, %.0f%% starved, %.0f%% injected@ well-formed subset: %d \
     requests, hit rate %.2f, hit pattern %s, bytes %s@]"
    s.requests s.wall_s s.rps s.deaths s.ok s.bad_request s.over_budget s.shed
    s.internal s.replies s.requests
    (100.0 *. s.malformed_frac)
    (100.0 *. s.starved_frac)
    (100.0 *. s.injected_frac)
    s.well_formed s.well_formed_hit_rate
    (if s.hit_consistent then "preserved" else "BROKEN")
    (if s.byte_identical then "identical" else "DIVERGED")

let to_json s =
  J.Obj
    [
      ("requests", J.Int s.requests);
      ("replies", J.Int s.replies);
      ("ok", J.Int s.ok);
      ("deaths", J.Int s.deaths);
      ("bad_request", J.Int s.bad_request);
      ("over_budget", J.Int s.over_budget);
      ("shed", J.Int s.shed);
      ("internal", J.Int s.internal);
      ("class_mismatches", J.Int s.class_mismatches);
      ("unparsed_replies", J.Int s.unparsed_replies);
      ("hit_consistent", J.Bool s.hit_consistent);
      ("byte_identical", J.Bool s.byte_identical);
      ("well_formed_hit_rate", J.Float s.well_formed_hit_rate);
      ("malformed_frac", J.Float s.malformed_frac);
      ("starved_frac", J.Float s.starved_frac);
      ("injected_frac", J.Float s.injected_frac);
      ("wall_s", J.Float s.wall_s);
      ("rps", J.Float s.rps);
    ]
