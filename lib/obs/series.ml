(* Windowed time series: the online half of the observability stack.

   A series is a fixed set of named integer columns sampled together
   on the virtual clock into a preallocated ring — one int per column
   per sample, no per-sample allocation, so a sampler can run inside
   the simulation without perturbing it.  Columns are plain closures
   over whatever the owner wants to expose (typed-counter deltas,
   queue depths, windowed histogram percentiles), which keeps this
   module dependency-free: the service layer builds latency columns
   from [Hist] windows and hands them in as [unit -> int].

   Determinism: a sample reads simulation state and writes only into
   the series' own ring, so sampling on/off cannot change a run's
   tables; fleet samplers additionally run only at the conservative-
   window barrier on the coordinator domain, so parallel and serial
   fleets sample identical values (DESIGN §10). *)

type col = { col_name : string; col_read : unit -> int }

let col ~name read = { col_name = name; col_read = read }

(* Delta column over a monotone reading: each sample reports the
   increase since the previous sample (the closure owns the cursor). *)
let dcol ~name read =
  let prev = ref 0 in
  {
    col_name = name;
    col_read =
      (fun () ->
        let v = read () in
        let d = v - !prev in
        prev := v;
        d);
  }

type t = {
  s_name : string;
  s_cols : col array;
  s_post : (unit -> unit) array;  (* run after each sample (window advance) *)
  s_cap : int;
  s_ts : int array;
  s_buf : int array;  (* s_cap * ncols, row-major *)
  mutable s_pos : int;  (* next write slot *)
  mutable s_taken : int;  (* total samples ever taken *)
}

let create ?(capacity = 4096) ~name ~cols ?(post = []) () =
  if capacity <= 0 then invalid_arg "Series.create: capacity <= 0";
  let cols = Array.of_list cols in
  if Array.length cols = 0 then invalid_arg "Series.create: no columns";
  {
    s_name = name;
    s_cols = cols;
    s_post = Array.of_list post;
    s_cap = capacity;
    s_ts = Array.make capacity 0;
    s_buf = Array.make (capacity * Array.length cols) 0;
    s_pos = 0;
    s_taken = 0;
  }

let name t = t.s_name
let col_names t = Array.to_list (Array.map (fun c -> c.col_name) t.s_cols)

let sample t ~ts =
  let n = Array.length t.s_cols in
  let base = t.s_pos * n in
  t.s_ts.(t.s_pos) <- ts;
  for i = 0 to n - 1 do
    t.s_buf.(base + i) <- t.s_cols.(i).col_read ()
  done;
  for i = 0 to Array.length t.s_post - 1 do
    t.s_post.(i) ()
  done;
  t.s_pos <- (if t.s_pos + 1 = t.s_cap then 0 else t.s_pos + 1);
  t.s_taken <- t.s_taken + 1

let length t = min t.s_taken t.s_cap
let dropped t = max 0 (t.s_taken - t.s_cap)

(* Ring slot of retained sample [i] (0 = oldest retained). *)
let slot t i =
  if i < 0 || i >= length t then invalid_arg "Series.slot: out of range";
  if t.s_taken <= t.s_cap then i
  else
    let s = t.s_pos + i in
    if s >= t.s_cap then s - t.s_cap else s

let ts_at t i = t.s_ts.(slot t i)
let get t i c = t.s_buf.((slot t i * Array.length t.s_cols) + c)

let to_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "ts_cycles";
  Array.iter
    (fun c ->
      Buffer.add_char b ',';
      Buffer.add_string b c.col_name)
    t.s_cols;
  Buffer.add_char b '\n';
  let n = Array.length t.s_cols in
  for i = 0 to length t - 1 do
    Buffer.add_string b (string_of_int (ts_at t i));
    for c = 0 to n - 1 do
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int (get t i c))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let write_csv t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))

(* ------------------------------------------------------------------ *)
(* Ambient sampling period.  One plain global, set once by the CLI
   before any run (and before any domain spawns): runs that were not
   handed an explicit period sample at this one if it is nonzero.
   Keeping it a read-mostly global (not DLS) means a parallel
   experiment driver's worker domains see the same period. *)

let ambient_period_us = ref 0.0
let set_period_us us =
  if not (us >= 0.0) then
    invalid_arg (Printf.sprintf "Series: period_us %g must be >= 0" us);
  ambient_period_us := us

let period_cycles ~cyc =
  let us = !ambient_period_us in
  if us = 0.0 then 0
  else
    let c = cyc us in
    if c < 1 then
      invalid_arg
        (Printf.sprintf
           "Series: period_us %g is below one cycle of the run's clock" us);
    c

(* ------------------------------------------------------------------ *)
(* Published series: runs deposit their series here (domain-locally,
   so parallel experiment drivers cannot interleave) for an exporter
   running afterwards on the same domain — the trace CLI renders
   published series as Chrome counter tracks. *)

let published_key : t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let publish t =
  let r = Domain.DLS.get published_key in
  r := t :: !r

let published () = List.rev !(Domain.DLS.get published_key)
let clear_published () = Domain.DLS.get published_key := []
