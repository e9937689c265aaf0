(* Per-CPU span-stack reconstruction and self/total aggregation.

   The trace bus records *complete* spans — a probe site emits
   [(ts, dur)] once the work is done — so the ring holds intervals in
   completion order, not a begin/end event stream.  The profiler
   rebuilds the call-tree shape per CPU from interval containment:
   sort each CPU's spans by start ascending, duration descending, and
   emit index *descending* (a parent completes after — hence is
   emitted after — its children, so on identical intervals the later
   emit is the outer frame), then run a stack machine that pops every
   open span ending at or before the next span's start.  A span whose
   interval leaks past its parent's end is clipped to the parent (the
   effective intervals of a node's direct children are then pairwise
   disjoint), which makes the accounting exact: every span's self
   cycles are its effective duration minus its direct children's, and
   the selfs sum to the total traced cycles (= the sum of root span
   durations) with no clamping. *)

type frame = { f_cpu : int; f_cat : string; f_name : string }

type row = {
  r_frame : frame;
  r_count : int;  (* spans aggregated into this frame *)
  r_self : int;  (* cycles in this frame minus nested spans *)
  r_total : int;  (* cycles with nested spans included *)
}

type t = {
  rows : row list;  (* self desc, then (cpu, cat, name) asc *)
  folded : (string * int) list;  (* "cpu 0;hw:work;..." -> self, path asc *)
  total_cycles : int;
  span_count : int;
  instant_count : int;
  dropped : int;
}

let frame_label f = f.f_cat ^ ":" ^ f.f_name
let cpu_label cpu = if cpu < 0 then "machine" else Printf.sprintf "cpu %d" cpu

(* One open span on the reconstruction stack. *)
type open_span = {
  o_frame : frame;
  o_end : int;  (* effective end: clipped to the parent's *)
  o_dur : int;  (* effective duration *)
  o_path : string;  (* folded path down to and including this frame *)
  mutable o_child : int;  (* cycles covered by direct children *)
}

let of_events ?(dropped = 0) (evs : Trace.event list) =
  let spans = ref [] and span_count = ref 0 and instant_count = ref 0 in
  List.iteri
    (fun idx (e : Trace.event) ->
      (* Flow points carry no duration and belong to no stack. *)
      if e.ev_flow <> 0 then ()
      else if e.ev_dur > 0 then (
        incr span_count;
        spans := (e, idx) :: !spans)
      else incr instant_count)
    evs;
  let by_cpu : (int, (Trace.event * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ((e : Trace.event), _ as se) ->
      match Hashtbl.find_opt by_cpu e.ev_cpu with
      | Some l -> l := se :: !l
      | None -> Hashtbl.add by_cpu e.ev_cpu (ref [ se ]))
    !spans;
  let cpus =
    Hashtbl.fold (fun cpu _ acc -> cpu :: acc) by_cpu [] |> List.sort compare
  in
  let aggs : (frame, int ref * int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  let folded : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let total_cycles = ref 0 in
  List.iter
    (fun cpu ->
      let sorted =
        List.sort
          (fun ((a : Trace.event), ai) ((b : Trace.event), bi) ->
            if a.ev_ts <> b.ev_ts then compare a.ev_ts b.ev_ts
            else if a.ev_dur <> b.ev_dur then compare b.ev_dur a.ev_dur
            else compare bi ai)
          !(Hashtbl.find by_cpu cpu)
      in
      let stack = ref [] in
      let close (o : open_span) =
        let self = o.o_dur - o.o_child in
        (let c, s, t =
           match Hashtbl.find_opt aggs o.o_frame with
           | Some cells -> cells
           | None ->
               let cells = (ref 0, ref 0, ref 0) in
               Hashtbl.add aggs o.o_frame cells;
               cells
         in
         incr c;
         s := !s + self;
         t := !t + o.o_dur);
        (if self > 0 then
           match Hashtbl.find_opt folded o.o_path with
           | Some r -> r := !r + self
           | None -> Hashtbl.add folded o.o_path (ref self));
        match !stack with
        | parent :: _ -> parent.o_child <- parent.o_child + o.o_dur
        | [] -> total_cycles := !total_cycles + o.o_dur
      in
      let rec pop_until ts =
        match !stack with
        | top :: rest when top.o_end <= ts ->
            stack := rest;
            close top;
            pop_until ts
        | _ -> ()
      in
      List.iter
        (fun ((e : Trace.event), _) ->
          pop_until e.ev_ts;
          let frame = { f_cpu = cpu; f_cat = e.ev_cat; f_name = e.ev_name } in
          let parent_end, parent_path =
            match !stack with
            | top :: _ -> (top.o_end, top.o_path)
            | [] -> (max_int, cpu_label cpu)
          in
          let o_end = min (e.ev_ts + e.ev_dur) parent_end in
          stack :=
            {
              o_frame = frame;
              o_end;
              o_dur = max 0 (o_end - e.ev_ts);
              o_path = parent_path ^ ";" ^ frame_label frame;
              o_child = 0;
            }
            :: !stack)
        sorted;
      pop_until max_int)
    cpus;
  let rows =
    Hashtbl.fold
      (fun f (c, s, t) acc ->
        { r_frame = f; r_count = !c; r_self = !s; r_total = !t } :: acc)
      aggs []
    |> List.sort (fun a b ->
           if a.r_self <> b.r_self then compare b.r_self a.r_self
           else
             compare
               (a.r_frame.f_cpu, a.r_frame.f_cat, a.r_frame.f_name)
               (b.r_frame.f_cpu, b.r_frame.f_cat, b.r_frame.f_name))
  in
  let folded =
    Hashtbl.fold (fun path r acc -> (path, !r) :: acc) folded []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    rows;
    folded;
    total_cycles = !total_cycles;
    span_count = !span_count;
    instant_count = !instant_count;
    dropped;
  }

let of_trace (tr : Trace.t) =
  of_events ~dropped:(Trace.dropped tr) (Trace.events tr)

let total_cycles t = t.total_cycles

(* Plain-text top-N table, widest-self first. *)
let render_top ?(top = 20) t =
  let rows = List.filteri (fun i _ -> i < top) t.rows in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "profile: %d spans, %d instants, %d dropped, %d total cycles\n"
       t.span_count t.instant_count t.dropped t.total_cycles);
  let header = ("track", "cat", "name", "count", "self", "total", "self%") in
  let render_row r =
    ( cpu_label r.r_frame.f_cpu,
      r.r_frame.f_cat,
      r.r_frame.f_name,
      string_of_int r.r_count,
      string_of_int r.r_self,
      string_of_int r.r_total,
      if t.total_cycles = 0 then "0.0"
      else Printf.sprintf "%.1f" (100.0 *. float r.r_self /. float t.total_cycles)
    )
  in
  let cells = header :: List.map render_row rows in
  let w f = List.fold_left (fun acc c -> max acc (String.length (f c))) 0 cells in
  let w1 = w (fun (a, _, _, _, _, _, _) -> a)
  and w2 = w (fun (_, a, _, _, _, _, _) -> a)
  and w3 = w (fun (_, _, a, _, _, _, _) -> a)
  and w4 = w (fun (_, _, _, a, _, _, _) -> a)
  and w5 = w (fun (_, _, _, _, a, _, _) -> a)
  and w6 = w (fun (_, _, _, _, _, a, _) -> a)
  and w7 = w (fun (_, _, _, _, _, _, a) -> a) in
  List.iter
    (fun (a, b', c, d, e, f, g) ->
      Buffer.add_string b
        (Printf.sprintf "%-*s  %-*s  %-*s  %*s  %*s  %*s  %*s\n" w1 a w2 b' w3 c
           w4 d w5 e w6 f w7 g))
    cells;
  Buffer.contents b

(* Two-run comparison: fold both profiles to per-frame-label self
   cycles (summed across CPUs — the label, not the track, is the
   stable identity between runs), convert to shares of each run's
   total, and keep the labels whose share moved. *)

type diff_row = {
  d_label : string;
  d_self_a : int;
  d_self_b : int;
  d_share_a : float;
  d_share_b : float;
  d_delta : float;
}

let by_label t =
  let tbl : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let label = frame_label r.r_frame in
      match Hashtbl.find_opt tbl label with
      | Some cell -> cell := !cell + r.r_self
      | None -> Hashtbl.add tbl label (ref r.r_self))
    t.rows;
  tbl

let diff ?(threshold = 1.0) a b =
  let ta = by_label a and tb = by_label b in
  let share total self =
    if total = 0 then 0.0 else 100.0 *. float_of_int self /. float_of_int total
  in
  let labels = Hashtbl.create 64 in
  Hashtbl.iter (fun l _ -> Hashtbl.replace labels l ()) ta;
  Hashtbl.iter (fun l _ -> Hashtbl.replace labels l ()) tb;
  Hashtbl.fold
    (fun label () acc ->
      let self_a = match Hashtbl.find_opt ta label with Some c -> !c | None -> 0 in
      let self_b = match Hashtbl.find_opt tb label with Some c -> !c | None -> 0 in
      let share_a = share a.total_cycles self_a in
      let share_b = share b.total_cycles self_b in
      let delta = share_b -. share_a in
      if Float.abs delta >= threshold then
        { d_label = label; d_self_a = self_a; d_self_b = self_b;
          d_share_a = share_a; d_share_b = share_b; d_delta = delta }
        :: acc
      else acc)
    labels []
  |> List.sort (fun x y ->
         match compare (Float.abs y.d_delta) (Float.abs x.d_delta) with
         | 0 -> compare x.d_label y.d_label
         | c -> c)

let render_diff ?(threshold = 1.0) ~a_name ~b_name a b =
  let rows = diff ~threshold a b in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "profile diff: %s (%d cycles) vs %s (%d cycles), threshold %.1f pct pts\n"
       a_name a.total_cycles b_name b.total_cycles threshold);
  if rows = [] then
    Buffer.add_string buf "no frame moved by more than the threshold\n"
  else begin
    let header = ("frame", a_name ^ "%", b_name ^ "%", "delta", "self cycles") in
    let cells =
      header
      :: List.map
           (fun r ->
             ( r.d_label,
               Printf.sprintf "%.1f" r.d_share_a,
               Printf.sprintf "%.1f" r.d_share_b,
               Printf.sprintf "%+.1f" r.d_delta,
               Printf.sprintf "%d -> %d" r.d_self_a r.d_self_b ))
           rows
    in
    let w f = List.fold_left (fun acc c -> max acc (String.length (f c))) 0 cells in
    let w1 = w (fun (x, _, _, _, _) -> x)
    and w2 = w (fun (_, x, _, _, _) -> x)
    and w3 = w (fun (_, _, x, _, _) -> x)
    and w4 = w (fun (_, _, _, x, _) -> x)
    and w5 = w (fun (_, _, _, _, x) -> x) in
    List.iter
      (fun (x1, x2, x3, x4, x5) ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s  %*s  %*s  %*s  %*s\n" w1 x1 w2 x2 w3 x3 w4 x4 w5
             x5))
      cells
  end;
  Buffer.contents buf
