module Vmap = Digraph.Vmap
module C = Compact
module Deadline = Noc_util.Timer.Deadline

type mapping = int Vmap.t

type outcome = Exhausted | Stopped | Timed_out

module Instr = struct
  type t = { probes : int Atomic.t; backtracks : int Atomic.t }

  let create () = { probes = Atomic.make 0; backtracks = Atomic.make 0 }
  let probes i = Atomic.get i.probes
  let backtracks i = Atomic.get i.backtracks

  (* Engines accumulate in plain local ints (an [incr] per candidate, cheap
     enough to leave unconditional) and publish once per search, so domains
     never contend on the atomics inside the inner loop. *)
  let flush i ~probes ~backtracks =
    ignore (Atomic.fetch_and_add i.probes probes);
    ignore (Atomic.fetch_and_add i.backtracks backtracks)
end

exception Stop_search of outcome

(* How many search-tree nodes are expanded between deadline checks. *)
let deadline_check_period = 256

(* Trailing-zero count of a non-zero word, for ascending bitset iteration. *)
let[@inline] ntz64 x =
  let n = ref 0 and x = ref x in
  if Int64.logand !x 0xFFFFFFFFL = 0L then begin
    n := !n + 32;
    x := Int64.shift_right_logical !x 32
  end;
  if Int64.logand !x 0xFFFFL = 0L then begin
    n := !n + 16;
    x := Int64.shift_right_logical !x 16
  end;
  if Int64.logand !x 0xFFL = 0L then begin
    n := !n + 8;
    x := Int64.shift_right_logical !x 8
  end;
  if Int64.logand !x 0xFL = 0L then begin
    n := !n + 4;
    x := Int64.shift_right_logical !x 4
  end;
  if Int64.logand !x 0x3L = 0L then begin
    n := !n + 2;
    x := Int64.shift_right_logical !x 2
  end;
  if Int64.logand !x 1L = 0L then incr n;
  !n

(* Pattern vertices are matched in a connectivity-aware static order: start
   from a vertex of maximum degree, then repeatedly pick the unmatched vertex
   with the most already-ordered neighbors (ties broken by degree, then by
   lowest id).  This is the classic VF2 ordering heuristic and keeps the
   frontier connected for connected patterns.  Dense ids are assigned in
   ascending original-id order, so the tie-breaks agree with the map-based
   reference engine. *)
let pattern_order (p : C.t) =
  let n = p.C.n in
  let chosen = Array.make n false in
  let order = Array.make n 0 in
  (* members of succ(v) ∪ pred(v) already chosen: merge two sorted slices
     so a vertex that is both successor and predecessor counts once *)
  let chosen_nbrs v =
    let sa = p.C.succ_arr and se = p.C.succ_off.(v + 1) in
    let pa = p.C.pred_arr and pe = p.C.pred_off.(v + 1) in
    let i = ref p.C.succ_off.(v) and j = ref p.C.pred_off.(v) and cnt = ref 0 in
    while !i < se || !j < pe do
      let w =
        if !i >= se then begin
          let w = pa.(!j) in
          incr j;
          w
        end
        else if !j >= pe then begin
          let w = sa.(!i) in
          incr i;
          w
        end
        else begin
          let wi = sa.(!i) and wj = pa.(!j) in
          if wi < wj then begin
            incr i;
            wi
          end
          else if wj < wi then begin
            incr j;
            wj
          end
          else begin
            incr i;
            incr j;
            wi
          end
        end
      in
      if chosen.(w) then incr cnt
    done;
    !cnt
  in
  for k = 0 to n - 1 do
    let best = ref (-1) and bnc = ref (-1) and bdeg = ref (-1) in
    for v = 0 to n - 1 do
      if not chosen.(v) then begin
        let nc = chosen_nbrs v in
        let deg =
          p.C.succ_off.(v + 1) - p.C.succ_off.(v) + p.C.pred_off.(v + 1)
          - p.C.pred_off.(v)
        in
        if nc > !bnc || (nc = !bnc && deg > !bdeg) then begin
          best := v;
          bnc := nc;
          bdeg := deg
        end
      end
    done;
    chosen.(!best) <- true;
    order.(k) <- !best
  done;
  order

let iter_view ?(deadline = Deadline.none) ?instr ~(pattern : C.t) ~(target : C.view) f =
  let np = pattern.C.n in
  let tb = target.C.base in
  let nt = tb.C.n in
  if np = 0 then Exhausted
  else if np > nt || pattern.C.n_edges > C.num_edges target then Exhausted
  else begin
    let order = pattern_order pattern in
    let ticks = ref 0 in
    let check_deadline () =
      incr ticks;
      if !ticks mod deadline_check_period = 0 && Deadline.expired deadline then
        raise (Stop_search Timed_out)
    in
    (* counting is hoisted so the disabled path pays one predictable branch
       per probe instead of two ref writes in the innermost loop *)
    let counting = instr <> None in
    let n_probes = ref 0 and n_backtracks = ref 0 in
    (* core: pattern dense -> target dense (-1 unmapped) *)
    let core = Array.make np (-1) in
    let ps_off = pattern.C.succ_off and ps = pattern.C.succ_arr in
    let pp_off = pattern.C.pred_off and pp = pattern.C.pred_arr in
    (* Bitset candidate domains: one [tw]-word row per search depth (the
       recursion below a depth only touches deeper rows, so rows can live in
       one flat scratch array), plus the used-target set as a bitset. *)
    let tw = tb.C.words in
    let tadj = tb.C.adj and tradj = tb.C.radj in
    let tail_mask =
      if nt land 63 = 0 then Int64.minus_one
      else Int64.sub (Int64.shift_left 1L (nt land 63)) 1L
    in
    let used_bits = Array.make tw 0L in
    let cand = Array.make (np * tw) 0L in
    let feasible u v =
      (* degree look-ahead, then: every already-mapped pattern neighbor of u
         must have the corresponding target edge (this also re-checks the
         deletion overlay, so candidates can be drawn from base slices) *)
      C.out_degree_d target v >= ps_off.(u + 1) - ps_off.(u)
      && C.in_degree_d target v >= pp_off.(u + 1) - pp_off.(u)
      &&
      let ok = ref true in
      let i = ref ps_off.(u) in
      while !ok && !i < ps_off.(u + 1) do
        let w' = core.(ps.(!i)) in
        if w' >= 0 && not (C.mem_edge_d target v w') then ok := false;
        incr i
      done;
      let j = ref pp_off.(u) in
      while !ok && !j < pp_off.(u + 1) do
        let w' = core.(pp.(!j)) in
        if w' >= 0 && not (C.mem_edge_d target w' v) then ok := false;
        incr j
      done;
      !ok
    in
    (* Instrumentation wraps [feasible] instead of sprinkling the hot path
       with checks: with no [?instr] the search runs the exact uncounted
       closure, and [try_candidate] never captures the counters (it is a
       fresh closure per [extend] call, so that would grow every node).
       A feasible probe is always followed by exactly one extend+backtrack,
       so counting successes here equals counting backtracks at the call
       site. *)
    let feasible =
      if not counting then feasible
      else fun u v ->
        incr n_probes;
        let ok = feasible u v in
        if ok then incr n_backtracks;
        ok
    in
    let emit () =
      let m = ref Vmap.empty in
      for u = 0 to np - 1 do
        m := Vmap.add pattern.C.verts.(u) tb.C.verts.(core.(u)) !m
      done;
      match f !m with `Continue -> () | `Stop -> raise (Stop_search Stopped)
    in
    let rec extend depth =
      if depth = np then emit ()
      else begin
        check_deadline ();
        let u = order.(depth) in
        let row = depth * tw in
        (* Candidate bitset: word-parallel intersection of the base
           successor row of every mapped predecessor and the base
           predecessor row (transpose) of every mapped successor, minus the
           already-used targets.  [feasible] re-checks the deletion overlay,
           so base rows suffice; with no mapped neighbor yet, every unused
           vertex is a candidate.  Bits are scanned ascending, preserving
           the enumeration order of the map-based reference engine. *)
        let have = ref false in
        for i = pp_off.(u) to pp_off.(u + 1) - 1 do
          let w' = core.(pp.(i)) in
          if w' >= 0 then begin
            let src = w' * tw in
            if !have then
              for k = 0 to tw - 1 do
                cand.(row + k) <-
                  Int64.logand cand.(row + k) (Array.unsafe_get tadj (src + k))
              done
            else begin
              Array.blit tadj src cand row tw;
              have := true
            end
          end
        done;
        for i = ps_off.(u) to ps_off.(u + 1) - 1 do
          let w' = core.(ps.(i)) in
          if w' >= 0 then begin
            let src = w' * tw in
            if !have then
              for k = 0 to tw - 1 do
                cand.(row + k) <-
                  Int64.logand cand.(row + k) (Array.unsafe_get tradj (src + k))
              done
            else begin
              Array.blit tradj src cand row tw;
              have := true
            end
          end
        done;
        if not !have then Array.fill cand row tw Int64.minus_one;
        for k = 0 to tw - 1 do
          cand.(row + k) <- Int64.logand cand.(row + k) (Int64.lognot used_bits.(k))
        done;
        cand.(row + tw - 1) <- Int64.logand cand.(row + tw - 1) tail_mask;
        for k = 0 to tw - 1 do
          let w = ref cand.(row + k) in
          while !w <> 0L do
            let v = (k lsl 6) + ntz64 !w in
            w := Int64.logand !w (Int64.sub !w 1L);
            if feasible u v then begin
              let bit = Int64.shift_left 1L (v land 63) in
              core.(u) <- v;
              used_bits.(k) <- Int64.logor used_bits.(k) bit;
              extend (depth + 1);
              core.(u) <- -1;
              used_bits.(k) <- Int64.logand used_bits.(k) (Int64.lognot bit)
            end
          done
        done
      end
    in
    let flush () =
      match instr with
      | Some i -> Instr.flush i ~probes:!n_probes ~backtracks:!n_backtracks
      | None -> ()
    in
    match extend 0 with
    | () ->
        flush ();
        Exhausted
    | exception Stop_search o ->
        flush ();
        o
  end

(* The [Digraph] entry points take an absolute wall-clock deadline and
   convert it to a monotonic target once, here. *)
let iter ?deadline ?instr ~pattern ~target f =
  iter_view ~deadline:(Deadline.of_wall_opt deadline) ?instr ~pattern:(C.freeze pattern)
    ~target:(C.view (C.freeze target))
    f

let find_first_view ?deadline ?instr ~pattern ~target () =
  let result = ref None in
  let _ =
    iter_view ?deadline ?instr ~pattern ~target (fun m ->
        result := Some m;
        `Stop)
  in
  !result

let find_first ?deadline ~pattern ~target () =
  find_first_view ~deadline:(Deadline.of_wall_opt deadline) ~pattern:(C.freeze pattern)
    ~target:(C.view (C.freeze target))
    ()

let exists ?deadline ~pattern ~target () =
  match find_first ?deadline ~pattern ~target () with Some _ -> true | None -> false

let find_all ?deadline ?max_matches ~pattern ~target () =
  let acc = ref [] in
  let count = ref 0 in
  let _ =
    iter ?deadline ~pattern ~target (fun m ->
        acc := m :: !acc;
        incr count;
        match max_matches with
        | Some k when !count >= k -> `Stop
        | Some _ | None -> `Continue)
  in
  List.rev !acc

let edge_image ~pattern m =
  Digraph.fold_edges
    (fun u v acc -> (Vmap.find u m, Vmap.find v m) :: acc)
    pattern []
  |> List.sort Digraph.Edge.compare

(* [edge_image] of a compact pattern: pattern edges in original ids, images
   sorted. *)
let edge_image_c ~(pattern : C.t) m =
  let acc = ref [] in
  for u = 0 to pattern.C.n - 1 do
    for i = pattern.C.succ_off.(u) to pattern.C.succ_off.(u + 1) - 1 do
      let v = pattern.C.succ_arr.(i) in
      acc := (Vmap.find pattern.C.verts.(u) m, Vmap.find pattern.C.verts.(v) m) :: !acc
    done
  done;
  List.sort Digraph.Edge.compare !acc

let find_distinct_images_view ?deadline ?instr ?max_matches ~pattern ~target () =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let count = ref 0 in
  let _ =
    iter_view ?deadline ?instr ~pattern ~target (fun m ->
        let key = edge_image_c ~pattern m in
        if Hashtbl.mem seen key then `Continue
        else begin
          Hashtbl.replace seen key true;
          acc := m :: !acc;
          incr count;
          match max_matches with
          | Some k when !count >= k -> `Stop
          | Some _ | None -> `Continue
        end)
  in
  List.rev !acc

let find_distinct_images ?deadline ?max_matches ~pattern ~target () =
  find_distinct_images_view ~deadline:(Deadline.of_wall_opt deadline) ?max_matches
    ~pattern:(C.freeze pattern)
    ~target:(C.view (C.freeze target))
    ()

let is_monomorphism ~pattern ~target m =
  let injective =
    let images = Vmap.fold (fun _ v acc -> v :: acc) m [] in
    List.length (List.sort_uniq Int.compare images) = List.length images
  in
  let total =
    Digraph.Vset.for_all (fun u -> Vmap.mem u m) (Digraph.vertices pattern)
  in
  injective && total
  && Digraph.fold_edges
       (fun u v ok -> ok && Digraph.mem_edge target (Vmap.find u m) (Vmap.find v m))
       pattern true
