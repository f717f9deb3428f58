module Timer = Noc_util.Timer

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_str f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else
      (* shortest-of-two round-trip: 12 significant digits read nicely and
         suffice for almost every value; fall back to 17 (always exact for
         binary64) when they don't re-parse to the same float, so record
         diffs compare bit-identical metrics *)
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_str f)
    | Str s -> escape buf s
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            emit buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    emit buf t;
    Buffer.contents buf

  (* A minimal JSON reader: enough to round-trip everything the emitter above
     produces (traces, metrics, bench records), so tools like the benchmark
     regression gate need no external JSON dependency. *)

  exception Parse_failure of string

  let parse_exn (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail m = raise (Parse_failure (Printf.sprintf "%s at offset %d" m !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
            | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
            | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
            | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
            | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
            | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
            | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
            | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "bad \\u escape";
                let hex = String.sub s !pos 4 in
                (match int_of_string_opt ("0x" ^ hex) with
                | None -> fail "bad \\u escape"
                | Some code ->
                    pos := !pos + 4;
                    (* the emitter only escapes ASCII control characters *)
                    if code < 0x80 then Buffer.add_char buf (Char.chr code)
                    else fail "non-ASCII \\u escape unsupported");
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      if text = "" then fail "expected a value"
      else if
        String.contains text '.' || String.contains text 'e' || String.contains text 'E'
      then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt text with
            | Some f -> Float f
            | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (elements [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
      | None -> fail "empty input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let parse s =
    match parse_exn s with
    | v -> Ok v
    | exception Parse_failure m -> Error (`Msg m)

  let member name = function Obj kvs -> List.assoc_opt name kvs | _ -> None

  let to_float = function
    | Int i -> Some (float_of_int i)
    | Float f -> Some f
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)

module Counter = struct
  type t = { name : string; cell : int Atomic.t }

  let make name = { name; cell = Atomic.make 0 }
  let name c = c.name
  let incr c = Atomic.incr c.cell
  let add c n = ignore (Atomic.fetch_and_add c.cell n)
  let get c = Atomic.get c.cell
end

module Gauge = struct
  type t = { name : string; cell : float Atomic.t }

  let make name = { name; cell = Atomic.make 0.0 }
  let name g = g.name
  let set g v = Atomic.set g.cell v
  let get g = Atomic.get g.cell
end

(* ------------------------------------------------------------------ *)
(* Observer                                                            *)

type event = {
  ph : char;  (* 'X' complete, 'i' instant, 'C' counter sample *)
  ev_name : string;
  cat : string;
  ts_us : float;
  dur_us : float;  (* meaningful for 'X' only *)
  tid : int;
  eargs : (string * Json.t) list;
}

type t = {
  on : bool;
  t0 : float;  (* monotonic epoch, seconds *)
  lock : Mutex.t;
  counters : (string, Counter.t) Hashtbl.t;
  gauges : (string, Gauge.t) Hashtbl.t;
  mutable events_rev : event list;
}

let mk on =
  {
    on;
    t0 = (if on then Timer.now_mono_s () else 0.0);
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    events_rev = [];
  }

let disabled = mk false
let create () = mk true
let enabled t = t.on
let now_us t = (Timer.now_mono_s () -. t.t0) *. 1e6

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let counter t name =
  if not t.on then Counter.make name
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.counters name with
        | Some c -> c
        | None ->
            let c = Counter.make name in
            Hashtbl.replace t.counters name c;
            c)

let gauge t name =
  if not t.on then Gauge.make name
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.gauges name with
        | Some g -> g
        | None ->
            let g = Gauge.make name in
            Hashtbl.replace t.gauges name g;
            g)

let self_tid () = (Domain.self () :> int)

let record t ev =
  locked t (fun () -> t.events_rev <- ev :: t.events_rev)

let span t ?(cat = "") ?(args = []) name f =
  if not t.on then f ()
  else begin
    let ts = now_us t in
    let tid = self_tid () in
    Fun.protect
      ~finally:(fun () ->
        record t
          { ph = 'X'; ev_name = name; cat; ts_us = ts; dur_us = now_us t -. ts; tid;
            eargs = args })
      f
  end

let instant t ?(args = []) name =
  if t.on then
    record t
      { ph = 'i'; ev_name = name; cat = ""; ts_us = now_us t; dur_us = 0.0;
        tid = self_tid (); eargs = args }

let sample t name v =
  if t.on then
    record t
      { ph = 'C'; ev_name = name; cat = ""; ts_us = now_us t; dur_us = 0.0;
        tid = self_tid (); eargs = [ ("value", Json.Float v) ] }

let sorted_counters t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.counters []
  |> List.sort (fun a b -> String.compare (Counter.name a) (Counter.name b))

let sorted_gauges t =
  Hashtbl.fold (fun _ g acc -> g :: acc) t.gauges []
  |> List.sort (fun a b -> String.compare (Gauge.name a) (Gauge.name b))

let metrics t =
  if not t.on then []
  else
    locked t (fun () ->
        List.map (fun c -> (Counter.name c, Json.Int (Counter.get c))) (sorted_counters t)
        @ List.map (fun g -> (Gauge.name g, Json.Float (Gauge.get g))) (sorted_gauges t))

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

module Trace = struct
  let event_json e =
    let base =
      [
        ("name", Json.Str e.ev_name);
        ("cat", Json.Str (if e.cat = "" then "app" else e.cat));
        ("ph", Json.Str (String.make 1 e.ph));
        ("ts", Json.Float e.ts_us);
        ("pid", Json.Int 0);
        ("tid", Json.Int e.tid);
      ]
    in
    let base = if e.ph = 'X' then base @ [ ("dur", Json.Float e.dur_us) ] else base in
    let base = if e.ph = 'i' then base @ [ ("s", Json.Str "g") ] else base in
    let base = if e.eargs = [] then base else base @ [ ("args", Json.Obj e.eargs) ] in
    Json.Obj base

  let to_json t =
    if not t.on then Json.Obj [ ("traceEvents", Json.List []) ]
    else
      locked t (fun () ->
          let ts = now_us t in
          let tid = self_tid () in
          (* final value of every scalar, so counters show in the viewer *)
          let finals =
            List.map
              (fun c ->
                { ph = 'C'; ev_name = Counter.name c; cat = ""; ts_us = ts; dur_us = 0.0;
                  tid; eargs = [ ("value", Json.Float (float_of_int (Counter.get c))) ] })
              (sorted_counters t)
            @ List.map
                (fun g ->
                  { ph = 'C'; ev_name = Gauge.name g; cat = ""; ts_us = ts; dur_us = 0.0;
                    tid; eargs = [ ("value", Json.Float (Gauge.get g)) ] })
                (sorted_gauges t)
          in
          let events = List.rev_append t.events_rev finals in
          Json.Obj
            [
              ("traceEvents", Json.List (List.map event_json events));
              ("displayTimeUnit", Json.Str "ms");
            ])

  let to_string t = Json.to_string (to_json t)

  let write t ~path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string t))
end
