(* The trace bus: spans and instants on virtual-cycle timestamps.

   Probe sites all over the stack call {!span}/{!instant}
   unconditionally; the [enabled] flag is checked first thing, so with
   the null sink a probe is one load and one perfectly-predicted
   branch — cheap enough to leave compiled into every hot path.  The
   ring sink keeps the last [capacity] events (older ones are
   overwritten and counted as dropped), which bounds memory no matter
   how long a traced run is. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_cpu : int;  (* simulated CPU = one Chrome "process"; -1 = machine *)
  ev_ts : int;  (* virtual cycles *)
  ev_dur : int;  (* 0 for instants *)
  ev_flow : int;  (* 0 = not a flow event; else flow_start/step/finish *)
  ev_id : int;  (* flow id (request id); 0 unless ev_flow <> 0 *)
}

let flow_start = 1
let flow_step = 2
let flow_finish = 3

type t = {
  mutable enabled : bool;
  mutable flows : bool;  (* flow probes additionally need this opt-in *)
  buf : event array;  (* [||] for the null and counting sinks *)
  cap : int;
  mutable pos : int;  (* next write slot *)
  mutable emitted : int;  (* total events ever pushed *)
  mutable cpu_base : int;  (* added to every non-negative ev_cpu *)
  mutable flow_base : int;  (* added to every flow id; see new_flow_scope *)
  shape : (string, int ref) Hashtbl.t option;  (* counting sink tallies *)
}

let null_event =
  { ev_name = ""; ev_cat = ""; ev_cpu = -1; ev_ts = 0; ev_dur = 0; ev_flow = 0;
    ev_id = 0 }

let null () =
  { enabled = false; flows = false; buf = [||]; cap = 0; pos = 0; emitted = 0;
    cpu_base = 0; flow_base = 0; shape = None }

let ring ?(capacity = 262_144) () =
  if capacity <= 0 then invalid_arg "Trace.ring: capacity <= 0";
  {
    enabled = true;
    flows = false;
    buf = Array.make capacity null_event;
    cap = capacity;
    pos = 0;
    emitted = 0;
    cpu_base = 0;
    flow_base = 0;
    shape = None;
  }

let counting () =
  { enabled = true; flows = false; buf = [||]; cap = 0; pos = 0; emitted = 0;
    cpu_base = 0; flow_base = 0; shape = Some (Hashtbl.create 64) }

let enabled t = t.enabled
let set_flows t on = t.flows <- on
let flows_enabled t = t.enabled && t.flows
let set_cpu_base t base = t.cpu_base <- base

(* Request handles restart at 0 on every service/fleet run, so a trace
   spanning several runs (an experiment sweep) would see every handle's
   flow "start" again.  Each run opens a fresh scope; the spacing
   leaves room for 2^32 requests per run. *)
let new_flow_scope t = t.flow_base <- t.flow_base + (1 lsl 32)

let push t ev =
  (match t.shape with
  | None -> ()
  | Some tbl -> (
      let key = ev.ev_cat ^ "/" ^ ev.ev_name in
      match Hashtbl.find_opt tbl key with
      | Some r -> incr r
      | None -> Hashtbl.add tbl key (ref 1)));
  if t.cap > 0 then begin
    t.buf.(t.pos) <- ev;
    t.pos <- (if t.pos + 1 = t.cap then 0 else t.pos + 1)
  end;
  t.emitted <- t.emitted + 1

let span t ~name ?(cat = "stack") ~cpu ~ts ~dur () =
  if t.enabled then
    let cpu = if cpu >= 0 then cpu + t.cpu_base else cpu in
    push t
      { ev_name = name; ev_cat = cat; ev_cpu = cpu; ev_ts = ts; ev_dur = dur;
        ev_flow = 0; ev_id = 0 }

let instant t ~name ?(cat = "stack") ~cpu ~ts () =
  if t.enabled then
    let cpu = if cpu >= 0 then cpu + t.cpu_base else cpu in
    push t
      { ev_name = name; ev_cat = cat; ev_cpu = cpu; ev_ts = ts; ev_dur = 0;
        ev_flow = 0; ev_id = 0 }

(* Flow probes are double-gated: [enabled] like every probe, plus the
   [flows] opt-in, so golden span-shape runs (counting sink, flows
   off) never see flow events and `trace` output only grows them
   under --flows. *)
let flow t ~name ?(cat = "flow") ~phase ~id ~cpu ~ts () =
  if t.enabled && t.flows then begin
    if phase < flow_start || phase > flow_finish then
      invalid_arg "Trace.flow: bad phase";
    let cpu = if cpu >= 0 then cpu + t.cpu_base else cpu in
    push t
      { ev_name = name; ev_cat = cat; ev_cpu = cpu; ev_ts = ts; ev_dur = 0;
        ev_flow = phase; ev_id = id + t.flow_base }
  end

let shape_counts t =
  match t.shape with
  | None -> []
  | Some tbl ->
      List.sort compare
        (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [])

let emitted t = t.emitted

let dropped t = max 0 (t.emitted - t.cap)

let length t = min t.emitted t.cap

(* Oldest-first contents of the ring. *)
let events t =
  if t.emitted <= t.cap then Array.to_list (Array.sub t.buf 0 t.emitted)
  else
    Array.to_list (Array.sub t.buf t.pos (t.cap - t.pos))
    @ Array.to_list (Array.sub t.buf 0 t.pos)
