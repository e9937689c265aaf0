(* Golden snapshots: one pinned text file per experiment.

   golden/ID.txt holds the machine-wide counter totals of a run under
   a collecting ambient context, then its per-category span tallies
   and its rendered tables, each section under a "## " marker.  The
   simulator is deterministic, so the tier-1 gate is an exact diff of
   the whole file (golden/dune); the parser below reads only the
   counters, for benchsuite's seed-0 check, which still compares them
   with per-counter tolerances. *)

type tolerance = Exact | Pct of float

(* Counters whose values are timing-derived (tick trains, timer and
   preemption interleavings) rather than direct behaviour counts.
   Experiments are deterministic, so even these match exactly; the
   slack applies only to benchsuite's seed-0 check, and the tier-1
   diff allows none. *)
let default_tolerances =
  [
    ("ticks", Pct 2.0);
    ("timer_fires", Pct 2.0);
    ("irq_dispatches", Pct 2.0);
    ("preemptions", Pct 5.0);
    ("context_switches", Pct 2.0);
    ("lock_contended", Pct 10.0);
  ]

let allowance tol expected =
  match tol with
  | Exact -> 0
  | Pct p -> int_of_float (ceil (p /. 100.0 *. float (max 1 (abs expected))))

type drift = {
  d_counter : string;
  d_expected : int;
  d_actual : int;
  d_allowed : int;
}

let render_drift d =
  Printf.sprintf "%s: expected %d, got %d (allowed drift %d)" d.d_counter
    d.d_expected d.d_actual d.d_allowed

let render ?(header = []) (counters : (string * int) list) =
  let b = Buffer.create 256 in
  List.iter (fun line -> Buffer.add_string b (Printf.sprintf "# %s\n" line)) header;
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s %d\n" name v))
    (List.sort (fun (a, _) (b, _) -> compare a b) counters);
  Buffer.contents b

let render_file ~header ~counters ~spans ~output =
  String.concat ""
    [ render ~header counters; "## spans\n"; render spans; "## output\n"; output ]

let is_sep c = c = ' ' || c = '\t'

(* One "name value" line.  The value is the trailing token; split on
   the last run of spaces/tabs, since span names may themselves contain
   spaces and editors may retab the separator. *)
let parse_line line =
  let len = String.length line in
  let vend = ref (len - 1) in
  while !vend >= 0 && not (is_sep line.[!vend]) do decr vend done;
  if !vend < 0 then invalid_arg ("Golden.parse: malformed line: " ^ line);
  let v = String.sub line (!vend + 1) (len - !vend - 1) in
  let nend = ref !vend in
  while !nend >= 0 && is_sep line.[!nend] do decr nend done;
  if !nend < 0 then invalid_arg ("Golden.parse: malformed line: " ^ line);
  let name = String.sub line 0 (!nend + 1) in
  match int_of_string_opt v with
  | Some v -> (name, v)
  | None -> invalid_arg ("Golden.parse: bad value on line: " ^ line)

(* Tolerate trailing whitespace, CRLF endings, and blank lines from
   hand-edited files; stop at the first section marker. *)
let parse (s : string) : (string * int) list =
  let rec go acc = function
    | [] -> List.rev acc
    | line :: rest ->
        let line = String.trim line in
        if String.starts_with ~prefix:"## " line then List.rev acc
        else if line = "" || line.[0] = '#' then go acc rest
        else go (parse_line line :: acc) rest
  in
  go [] (String.split_on_char '\n' s)

(* Compare actual counters against a snapshot over the union of names
   (a counter missing on either side reads as 0, so both newly fired
   and newly silent counters are drifts).  Returns the out-of-tolerance
   drifts sorted by counter name. *)
let compare_counters ?(tolerances = default_tolerances)
    ~(expected : (string * int) list) (actual : (string * int) list) : drift list =
  let names =
    List.sort_uniq compare (List.map fst expected @ List.map fst actual)
  in
  List.filter_map
    (fun name ->
      let get l = match List.assoc_opt name l with Some v -> v | None -> 0 in
      let e = get expected and a = get actual in
      let tol =
        match List.assoc_opt name tolerances with Some t -> t | None -> Exact
      in
      let allowed = allowance tol e in
      if abs (a - e) > allowed then
        Some { d_counter = name; d_expected = e; d_actual = a; d_allowed = allowed }
      else None)
    names

let read_file path = parse (Json.read_file path)
