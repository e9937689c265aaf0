(* Chrome trace-event (Perfetto-loadable) export and validation.

   Export maps each simulated CPU to one Chrome "process" (pid =
   cpu + 1, with pid 0 reserved for machine-wide events), names the
   processes via [ph:"M"] metadata, and emits complete spans as
   [ph:"X"] with [ts]/[dur] in virtual cycles, instants as [ph:"i"],
   causal flows as [ph:"s"/"t"/"f"] keyed by a shared numeric id, and
   (optionally) windowed {!Series} samples as [ph:"C"] counter tracks
   so Perfetto renders queue depth / p99 / fault-rate lanes alongside
   the spans.  Validation reads the file back through the shared
   {!Json} reader — used by `trace --check` (test/smokes.t) and the
   test suite. *)

let pid_of_cpu cpu = cpu + 1
let process_label cpu = if cpu < 0 then "machine" else Printf.sprintf "cpu %d" cpu

let escape = Json.escape

let flow_ph phase =
  if phase = Trace.flow_start then "s"
  else if phase = Trace.flow_step then "t"
  else "f"

let to_json ?(series : Series.t list = []) (tr : Trace.t) =
  let evs =
    List.stable_sort
      (fun (a : Trace.event) b -> compare a.ev_ts b.ev_ts)
      (Trace.events tr)
  in
  let cpus =
    List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.ev_cpu) evs)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n "
  in
  List.iter
    (fun cpu ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\
            \"args\":{\"name\":\"%s\"}}"
           (pid_of_cpu cpu) (process_label cpu)))
    cpus;
  List.iter
    (fun (e : Trace.event) ->
      sep ();
      Buffer.add_string b "{\"name\":\"";
      escape b e.ev_name;
      Buffer.add_string b "\",\"cat\":\"";
      escape b e.ev_cat;
      Buffer.add_string b "\",";
      if e.ev_flow <> 0 then
        (* "bp":"e" binds the finish point to its enclosing slice,
           which is how Perfetto draws the terminating arrow. *)
        Buffer.add_string b
          (Printf.sprintf
             "\"ph\":\"%s\",\"id\":%d,%s\"pid\":%d,\"tid\":0,\"ts\":%d}"
             (flow_ph e.ev_flow) e.ev_id
             (if e.ev_flow = Trace.flow_finish then "\"bp\":\"e\"," else "")
             (pid_of_cpu e.ev_cpu) e.ev_ts)
      else if e.ev_dur > 0 then
        Buffer.add_string b
          (Printf.sprintf "\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"ts\":%d,\"dur\":%d}"
             (pid_of_cpu e.ev_cpu) e.ev_ts e.ev_dur)
      else
        Buffer.add_string b
          (Printf.sprintf "\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":0,\"ts\":%d}"
             (pid_of_cpu e.ev_cpu) e.ev_ts))
    evs;
  (* Counter tracks: one ph:"C" event per sample per column, named
     "<series>:<col>" on the machine-wide pid, rendered by Perfetto as
     a value lane.  Emitted after the span stream (Perfetto sorts by
     ts itself; our validator tracks counter monotonicity per name). *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      (* A sweep publishes one same-named series per sub-run, each
         with timestamps restarting at 0; suffix repeats so counter
         lanes (and the validator's per-name monotonicity) stay
         distinct. *)
      let sname =
        let base = Series.name s in
        match Hashtbl.find_opt seen base with
        | None ->
            Hashtbl.add seen base 1;
            base
        | Some k ->
            Hashtbl.replace seen base (k + 1);
            Printf.sprintf "%s#%d" base (k + 1)
      in
      let names = Array.of_list (Series.col_names s) in
      for i = 0 to Series.length s - 1 do
        let ts = Series.ts_at s i in
        Array.iteri
          (fun c cn ->
            sep ();
            Buffer.add_string b "{\"name\":\"";
            escape b (sname ^ ":" ^ cn);
            Buffer.add_string b
              (Printf.sprintf
                 "\",\"cat\":\"series\",\"ph\":\"C\",\"pid\":0,\"ts\":%d,\
                  \"args\":{\"v\":%d}}"
                 ts (Series.get s i c)))
          names
      done)
    series;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents b

let write_file ?series (tr : Trace.t) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ?series tr))

(* Validate an exported trace: it must parse, hold a traceEvents
   array, and every X/i/s/t/f/C event needs a non-negative integral
   ts (and dur) with per-pid monotone non-decreasing timestamps for
   X/i/s/t/f (counter events are keyed and checked per counter name
   instead, since they are appended as separate tracks).  Flow events
   additionally need a numeric id, and every flow id must start with
   an "s" before any "t"/"f".  Returns the number of events checked. *)
let validate (s : string) : (int, string) result =
  match Json.parse s with
  | exception Json.Bad msg -> Error ("JSON parse error: " ^ msg)
  | json -> (
      match Json.member "traceEvents" json with
      | Some (Arr evs) -> (
          let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
          let ctr_ts : (string, float) Hashtbl.t = Hashtbl.create 8 in
          let flow_started : (int, unit) Hashtbl.t = Hashtbl.create 8 in
          let checked = ref 0 in
          try
            List.iter
              (fun ev ->
                let num k =
                  match Json.member k ev with
                  | Some (Num f) -> f
                  | _ -> raise (Json.Bad ("event missing numeric " ^ k))
                in
                let check_ts () =
                  let ts = num "ts" in
                  if ts < 0.0 || Float.rem ts 1.0 <> 0.0 then
                    raise (Json.Bad "negative or non-integral ts");
                  ts
                in
                match Json.member "ph" ev with
                | Some (Str ("X" | "i")) -> (
                    incr checked;
                    let ts = check_ts () in
                    (match Json.member "dur" ev with
                    | Some (Num d) when d < 0.0 -> raise (Json.Bad "negative dur")
                    | _ -> ());
                    let pid = int_of_float (num "pid") in
                    match Hashtbl.find_opt last_ts pid with
                    | Some prev when ts < prev ->
                        raise (Json.Bad "timestamps not monotone within a track")
                    | _ -> Hashtbl.replace last_ts pid ts)
                | Some (Str (("s" | "t" | "f") as ph)) -> (
                    incr checked;
                    let ts = check_ts () in
                    let pid = int_of_float (num "pid") in
                    let id = num "id" in
                    if Float.rem id 1.0 <> 0.0 then
                      raise (Json.Bad "non-integral flow id");
                    let id = int_of_float id in
                    (* A retried request's stale machine-side step can
                       land after the front tier's finish, so only
                       start ordering is checked. *)
                    (match (ph, Hashtbl.mem flow_started id) with
                    | "s", true -> raise (Json.Bad "duplicate flow start")
                    | "s", false -> Hashtbl.replace flow_started id ()
                    | _, false ->
                        raise (Json.Bad "flow step/finish before its start")
                    | _, true -> ());
                    match Hashtbl.find_opt last_ts pid with
                    | Some prev when ts < prev ->
                        raise (Json.Bad "timestamps not monotone within a track")
                    | _ -> Hashtbl.replace last_ts pid ts)
                | Some (Str "C") -> (
                    incr checked;
                    let ts = check_ts () in
                    let name =
                      match Json.member "name" ev with
                      | Some (Str n) -> n
                      | _ -> raise (Json.Bad "counter event missing name")
                    in
                    (match Json.member "args" ev with
                    | Some args -> (
                        match Json.member "v" args with
                        | Some (Num _) -> ()
                        | _ -> raise (Json.Bad "counter event missing args.v"))
                    | None -> raise (Json.Bad "counter event missing args"));
                    match Hashtbl.find_opt ctr_ts name with
                    | Some prev when ts < prev ->
                        raise (Json.Bad "counter timestamps not monotone")
                    | _ -> Hashtbl.replace ctr_ts name ts)
                | _ -> ())
              evs;
            Ok !checked
          with Json.Bad msg -> Error msg)
      | _ -> Error "missing traceEvents array")

let validate_file path : (int, string) result = validate (Json.read_file path)

(* Count flow ids whose points touch at least two distinct pids — a
   request trace that actually crossed a machine boundary.  `trace
   --flows --check` fails when a fleet run yields none. *)
let cross_process_flows (s : string) : (int, string) result =
  match Json.parse s with
  | exception Json.Bad msg -> Error ("JSON parse error: " ^ msg)
  | json -> (
      match Json.member "traceEvents" json with
      | Some (Arr evs) -> (
          let pids : (int, int * bool) Hashtbl.t = Hashtbl.create 64 in
          try
            List.iter
              (fun ev ->
                match Json.member "ph" ev with
                | Some (Str ("s" | "t" | "f")) -> (
                    let num k =
                      match Json.member k ev with
                      | Some (Num f) -> f
                      | _ -> raise (Json.Bad ("flow event missing numeric " ^ k))
                    in
                    let id = int_of_float (num "id") in
                    let pid = int_of_float (num "pid") in
                    match Hashtbl.find_opt pids id with
                    | None -> Hashtbl.replace pids id (pid, false)
                    | Some (p0, crossed) ->
                        if (not crossed) && p0 <> pid then
                          Hashtbl.replace pids id (p0, true))
                | _ -> ())
              evs;
            Ok
              (Hashtbl.fold
                 (fun _ (_, crossed) acc -> if crossed then acc + 1 else acc)
                 pids 0)
          with Json.Bad msg -> Error msg)
      | _ -> Error "missing traceEvents array")

let cross_process_flows_file path : (int, string) result =
  cross_process_flows (Json.read_file path)
