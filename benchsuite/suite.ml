(* The benchmark: repeated fresh-process runs of five workloads,
   layer metrics read from outside the library, and an A/B verdict.

     suite.exe [--workload NAME]... [--seed N] [--reps N | --seconds S]
               [--trace 0|1] [--json PATH] [--spans PATH] [--root DIR]
     suite.exe --quick [--root DIR]
     suite.exe --compare BASE.json NEW.json [--root DIR]

   Every repetition is a fresh child process running one workload
   once, because every user invocation of the simulator starts cold;
   there is no warm-up.  Rounds run each selected workload once, in an
   order shuffled from the seed, until [--reps] rounds are done or
   [--seconds] have passed (default: 5 rounds).  With [--trace 1] (the
   default) one traced repetition per workload and the layer
   microbenchmarks follow, and the spans go to the [--spans] file.

   The last line of standard output is one JSON object: correct,
   attempted, failed, and the end-to-end metrics ([--trace 0]) or the
   per-layer ones ([--trace 1]).  The exit code is non-zero when any
   check fails. *)

module J = Iw_obs.Json

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; unit : string; better : Bench_stats.direction }

let m name unit better = { name; unit; better }
let lower = Bench_stats.Lower
let higher = Bench_stats.Higher

let end_to_end =
  [
    m "wall_s" "s" lower;
    m "ops_per_host_s" "ops/s" higher;
    m "setup_s" "s" lower;
    m "peak_rss_mb" "MB" lower;
    m "minor_words_per_op" "words" lower;
  ]

(* A layer metric a workload does not exercise reads 0. *)
let per_layer =
  [
    m "engine.event_ns" "ns" lower;
    m "engine.event_words" "words" lower;
    m "engine.timer_ns" "ns" lower;
    m "engine.itbl_ns" "ns" lower;
    m "hw.nic_ring_ns" "ns" lower;
    m "hw.nic_ring_words" "words" lower;
    m "hw.nic_irqs_per_frame" "ratio" lower;
    m "hw.nic_empty_poll_frac" "ratio" lower;
    m "kernel.switch_ns" "ns" lower;
    m "kernel.switch_words" "words" lower;
    m "kernel.switches_per_op" "ratio" lower;
    m "coherence.access_ns" "ns" lower;
    m "coherence.access_words" "words" lower;
    m "coherence.replay_off_s" "s" lower;
    m "coherence.replay_deact_s" "s" lower;
    m "coherence.hit_frac" "ratio" higher;
    m "coherence.inval_per_kaccess" "1/kaccess" lower;
    m "coherence.dir_req_per_kaccess" "1/kaccess" lower;
    m "coherence.sim_speedup" "x" higher;
    m "coherence.sim_energy_reduction_pct" "%" higher;
    m "service.hist_record_ns" "ns" lower;
    m "service.squeue_ns" "ns" lower;
    m "service.dispatch_po2_ns" "ns" lower;
    m "service.plane_run_s" "s" lower;
    m "service.fleet_par_s" "s" lower;
    m "service.fleet_ser_s" "s" lower;
    m "service.window_par_us" "us" lower;
    m "service.window_ser_us" "us" lower;
    m "service.fleet_speedup" "x" higher;
    m "service.queue_p99_us" "us" lower;
    m "service.service_p99_us" "us" lower;
    m "service.utilization" "ratio" lower;
    m "service.loadgen_lag_p99_us" "us" lower;
    m "service.retries_per_op" "ratio" lower;
    m "service.nacks_per_op" "ratio" lower;
    m "service.hedge_win_frac" "ratio" higher;
    m "service.sim_p50_us" "us" lower;
    m "service.sim_p99_us" "us" lower;
    m "service.sim_slo_frac" "ratio" higher;
    m "faults.injected" "count" lower;
    m "obs.span_null_ns" "ns" lower;
    m "obs.span_ring_ns" "ns" lower;
    m "obs.counter_incr_ns" "ns" lower;
    m "obs.ring_trace_ratio" "x" lower;
    m "obs.bench_trace_overhead" "ratio" lower;
  ]
  @ List.concat_map
      (fun (layer, _) ->
        [
          m (Printf.sprintf "runtimes.%s.host_s" layer) "s" lower;
          m (Printf.sprintf "runtimes.%s.minor_words" layer) "words" lower;
        ])
      Workloads.runtime_layers
  @ [ m "bench.calib_ns" "ns" lower ]

(* ------------------------------------------------------------------ *)
(* JSON *)

let num f = J.Num f
let int i = J.Num (float_of_int i)
let str s = J.Str s
let assoc kv = J.Obj (List.map (fun (k, v) -> (k, num v)) kv)

let rec add_json b = function
  | J.Null -> Buffer.add_string b "null"
  | J.Bool x -> Buffer.add_string b (string_of_bool x)
  | J.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Buffer.add_string b (Printf.sprintf "%.0f" f)
  | J.Num f when Float.is_finite f ->
      Buffer.add_string b (Printf.sprintf "%.17g" f)
  | J.Num _ -> Buffer.add_string b "null"
  | J.Str s ->
      Buffer.add_char b '"';
      J.escape b s;
      Buffer.add_char b '"'
  | J.Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add_json b v)
        l;
      Buffer.add_char b ']'
  | J.Obj kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_json b (J.Str k);
          Buffer.add_char b ':';
          add_json b v)
        kv;
      Buffer.add_char b '}'

let json_string j =
  let b = Buffer.create 256 in
  add_json b j;
  Buffer.contents b

let write_json path j =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (json_string j);
      output_char oc '\n')

let get path j =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path

let to_num = function Some (J.Num f) -> f | _ -> Float.nan
let to_str = function Some (J.Str s) -> s | _ -> ""
let to_list = function Some (J.Arr l) -> l | _ -> []
let to_obj = function Some (J.Obj kv) -> kv | _ -> []
let nums j = List.map (fun (k, v) -> (k, to_num (Some v))) (to_obj j)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("suite: " ^ s);
      exit 2)
    fmt

let read_json path =
  match J.parse (J.read_file path) with
  | j -> j
  | exception Sys_error e -> die "cannot read %s" e
  | exception J.Bad e -> die "%s is not JSON: %s" path e

let mkdir_p dir =
  let rec go d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* ------------------------------------------------------------------ *)
(* Child: one repetition *)

let vm_hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             try Scanf.sscanf l "VmHWM: %d kB" Option.some
             with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      |> Option.value ~default:0

let find_workload name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      die "unknown workload %s (known: %s)" name
        (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))

let child ~workload ~seed ~rep ~quick ~traced ~setup_only ~golden =
  Iw_engine.Rng.set_global_seed seed;
  Probe.traced := traced;
  Probe.setup_only := setup_only;
  let w = find_workload workload in
  let w_main = Probe.minor_words () in
  let t_main = Unix.gettimeofday () in
  let fields =
    match w.run { Workloads.quick; seed; rep; golden } with
    | exception Probe.Setup_done -> [ ("t_start", num !Probe.t_first) ]
    | o ->
        let t_end = Unix.gettimeofday () in
        let w_end = Probe.minor_words () in
        let span i parent layer name t0 t1 words =
          J.Obj
            [
              ("id", int i);
              ("parent", int parent);
              ("layer", str layer);
              ("name", str name);
              ("start_s", num (t0 -. t_main));
              ("end_s", num (t1 -. t_main));
              ("minor_words", num words);
            ]
        in
        let spans =
          span 0 (-1) "bench" ("repetition " ^ workload) t_main t_end
            (w_end -. w_main)
          :: List.mapi
               (fun i (s : Probe.span) ->
                 span (i + 1) 0 s.layer s.name s.t0 s.t1 s.words)
               (List.rev !Probe.spans)
        in
        [
          ("t_start", num !Probe.t_first);
          ("wall_s", num !Probe.wall);
          ("minor_words", num !Probe.words);
          ("ops", int o.ops);
          ("failed", int o.failed);
          ("problems", J.Arr (List.map str o.problems));
          ("digest", str o.digest);
          ("sim", assoc o.sim);
          ("host", assoc o.host);
          ("peak_rss_kb", int (vm_hwm_kb ()));
          ("spans", J.Arr (if traced then spans else []));
        ]
  in
  print_endline (json_string (J.Obj fields))

(* ------------------------------------------------------------------ *)
(* Parent: spawning repetitions *)

type rep = {
  workload : string;
  id : int;
  setup_s : float;
  wall_s : float;
  words : float;
  ops : int;
  failed : int;
  problems : string list;
  digest : string;
  sim : (string * float) list;
  host : (string * float) list;
  rss_mb : float;
  spans : J.t list;
}

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let spawn args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let t_spawn = Unix.gettimeofday () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  in
  let status = waitpid pid in
  let last =
    String.split_on_char '\n' out
    |> List.filter (fun l -> String.trim l <> "")
    |> List.rev
  in
  match (status, last) with
  | Unix.WEXITED 0, l :: _ -> (
      match J.parse l with
      | j -> Ok (t_spawn, j)
      | exception J.Bad e -> Error ("unreadable result: " ^ e))
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "child exited with code %d" c)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      Error (Printf.sprintf "child killed by signal %d" s)

type opts = {
  workloads : Workloads.t list;
  seed : int;
  reps : int option;
  seconds : float option;
  trace : bool;
  quick : bool;
  json : string option;
  spans_path : string;
  root : string;
}

let child_args o (w : Workloads.t) ~id ~flags =
  [
    "--child"; w.name; "--seed"; string_of_int o.seed; "--rep"; string_of_int id;
    "--golden"; Filename.concat o.root "golden";
  ]
  @ (if o.quick then [ "--quick" ] else [])
  @ flags

let run_rep o w ~id ~traced =
  let flags = if traced then [ "--traced" ] else [] in
  match spawn (child_args o w ~id ~flags) with
  | Error e ->
      {
        workload = w.name; id; setup_s = Float.nan; wall_s = Float.nan;
        words = Float.nan; ops = 1; failed = 1; problems = [ e ]; digest = "";
        sim = []; host = []; rss_mb = Float.nan; spans = [];
      }
  | Ok (t_spawn, j) ->
      let n k = to_num (J.member k j) in
      {
        workload = w.name;
        id;
        setup_s = n "t_start" -. t_spawn;
        wall_s = n "wall_s";
        words = n "minor_words";
        ops = int_of_float (n "ops");
        failed = int_of_float (n "failed");
        problems =
          List.map (fun p -> to_str (Some p)) (to_list (J.member "problems" j));
        digest = to_str (J.member "digest" j);
        sim = nums (J.member "sim" j);
        host = nums (J.member "host" j);
        rss_mb = n "peak_rss_kb" /. 1024.0;
        spans = to_list (J.member "spans" j);
      }

let setup_sample o w =
  match spawn (child_args o w ~id:0 ~flags:[ "--setup-only" ]) with
  | Ok (t_spawn, j) -> Some (to_num (J.member "t_start" j) -. t_spawn)
  | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Environment stamp *)

let read_trimmed path =
  String.trim (In_channel.with_open_text path In_channel.input_all)

(* HEAD read from the checkout's own .git, so the stamp never looks
   outside the working tree. *)
let git_head root =
  let git = Filename.concat root ".git" in
  match read_trimmed (Filename.concat git "HEAD") with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_trimmed (Filename.concat git r) with
      | sha -> sha
      | exception Sys_error _ -> (
          match read_trimmed (Filename.concat git "packed-refs") with
          | exception Sys_error _ -> "unknown"
          | packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ sha; r' ] when r' = r -> Some sha
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | sha -> sha

let loadavg () =
  match read_trimmed "/proc/loadavg" with
  | exception Sys_error _ -> []
  | s -> (
      match String.split_on_char ' ' s with
      | a :: b :: c :: _ -> List.filter_map float_of_string_opt [ a; b; c ]
      | _ -> [])

(* A fixed integer loop: host speed, so walls can be normalised
   across hosts.  Reported, never gated. *)
let calib_ns () =
  let iters = 4_000_000 in
  let once () =
    let t0 = Unix.gettimeofday () in
    let x = ref 1 in
    for _ = 1 to iters do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF
    done;
    ignore (Sys.opaque_identity !x);
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  Bench_stats.median (List.init 5 (fun _ -> once ()))

(* ------------------------------------------------------------------ *)
(* Aggregation *)

type summary = { median : float; q1 : float; q3 : float; samples : float list }

let summarize = function
  | [] -> None
  | samples ->
      let q1, _, q3 = Bench_stats.quartiles samples in
      Some { median = Bench_stats.median samples; q1; q3; samples }

type result = {
  w : Workloads.t;
  reps : rep list;  (** untraced, in run order *)
  traced : rep option;
  attempted : int;
  failed_ops : int;
  failures : string list;  (** failed checks *)
  e2e : (metric * summary) list;
  layer : (string * float) list;
}

let finite x = Float.is_finite x

let aggregate (w : Workloads.t) reps traced setups micro calib =
  let all = reps @ Option.to_list traced in
  let digests = List.sort_uniq compare (List.map (fun r -> r.digest) all) in
  let failures =
    List.concat_map
      (fun r -> List.map (Printf.sprintf "rep %d: %s" r.id) r.problems)
      all
    @
    if List.length digests > 1 then
      [ "simulated outputs differ across repetitions of one seed" ]
    else []
  in
  let ok = List.filter (fun r -> r.problems = [] && finite r.wall_s) reps in
  let samples f = List.filter finite (List.map f ok) in
  let per_op f r = f r /. float_of_int (max 1 r.ops) in
  let e2e =
    List.filter_map
      (fun mt ->
        let s =
          match mt.name with
          | "wall_s" -> samples (fun r -> r.wall_s)
          | "ops_per_host_s" -> samples (fun r -> float_of_int r.ops /. r.wall_s)
          | "setup_s" -> List.filter finite setups
          | "peak_rss_mb" -> samples (fun r -> r.rss_mb)
          | "minor_words_per_op" -> samples (per_op (fun r -> r.words))
          | other -> invalid_arg ("aggregate: " ^ other)
        in
        Option.map (fun s -> (mt, s)) (summarize s))
      end_to_end
  in
  let layer =
    match traced with
    | None -> []
    | Some t ->
        let host_keys =
          List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.host) ok)
        in
        let medians =
          List.filter_map
            (fun k ->
              Option.map
                (fun s -> (k, s.median))
                (summarize (List.filter_map (fun r -> List.assoc_opt k r.host) ok)))
            host_keys
        in
        let overhead =
          match List.find_opt (fun (mt, _) -> mt.name = "wall_s") e2e with
          | Some (_, s) when finite t.wall_s ->
              [ ("obs.bench_trace_overhead", (t.wall_s /. s.median) -. 1.0) ]
          | _ -> []
        in
        let first_sim = match ok with r :: _ -> r.sim | [] -> [] in
        let sources =
          [
            medians; t.host; t.sim; first_sim; micro; overhead;
            [ ("bench.calib_ns", calib) ];
          ]
        in
        List.map
          (fun mt ->
            ( mt.name,
              List.find_map (List.assoc_opt mt.name) sources
              |> Option.value ~default:0.0 ))
          per_layer
  in
  let attempted = List.fold_left (fun a r -> a + r.ops) 0 all in
  let failed_ops =
    List.fold_left
      (fun a r -> a + if r.problems = [] then r.failed else r.ops)
      0 all
  in
  { w; reps; traced; attempted; failed_ops; failures; e2e; layer }

(* ------------------------------------------------------------------ *)
(* Output *)

(* What the paper reports for Fig. 7, printed beside the model. *)
let paper =
  [ ("coherence.sim_speedup", 1.46); ("coherence.sim_energy_reduction_pct", 53.0) ]

let print_result o r =
  Printf.printf "\n== %s (op: %s) ==\n%s\n" r.w.name r.w.op (r.w.size ~quick:o.quick);
  Printf.printf "%-36s %-9s %14s %14s %14s %4s\n" "metric" "unit" "median" "q1"
    "q3" "n";
  List.iter
    (fun (mt, s) ->
      Printf.printf "%-36s %-9s %14.6g %14.6g %14.6g %4d\n" mt.name mt.unit s.median
        s.q1 s.q3 (List.length s.samples))
    r.e2e;
  Printf.printf "%-36s %-9s %14.6g   (%d of %d ops)\n" "fail_frac" "ratio"
    (float_of_int r.failed_ops /. float_of_int (max 1 r.attempted))
    r.failed_ops r.attempted;
  (match r.reps with
  | first :: _ ->
      List.iter
        (fun (k, v) ->
          match List.assoc_opt k paper with
          | Some p ->
              Printf.printf "%-36s %14.6g   (paper %g: model error %+.1f%%)\n" k v p
                (100.0 *. ((v /. p) -. 1.0))
          | None -> Printf.printf "%-36s %14.6g\n" k v)
        first.sim;
      Printf.printf "%-36s %s\n" "digest" first.digest
  | [] -> ());
  if r.layer <> [] then begin
    Printf.printf "per-layer (traced repetition, microbenchmarks, host medians):\n";
    List.iter
      (fun mt ->
        let v = List.assoc mt.name r.layer in
        if v <> 0.0 then Printf.printf "  %-34s %-9s %14.6g\n" mt.name mt.unit v)
      per_layer
  end;
  match r.failures with
  | [] -> Printf.printf "checks: ok (%d repetitions)\n" (List.length r.reps)
  | ps -> List.iter (Printf.printf "CHECK FAILED: %s\n") ps

let summary_json mt s =
  J.Obj
    [
      ("unit", str mt.unit);
      ("median", num s.median);
      ("q1", num s.q1);
      ("q3", num s.q3);
      ("n", int (List.length s.samples));
      ("samples", J.Arr (List.map num s.samples));
    ]

let result_json o r =
  ( r.w.name,
    J.Obj
      [
        ("op", str r.w.op);
        ("size", str (r.w.size ~quick:o.quick));
        ("correct", J.Bool (r.failures = []));
        ("attempted", int r.attempted);
        ("failed", int r.failed_ops);
        ("problems", J.Arr (List.map str r.failures));
        ("digest", str (match r.reps with x :: _ -> x.digest | [] -> ""));
        ( "metrics",
          J.Obj (List.map (fun (mt, s) -> (mt.name, summary_json mt s)) r.e2e) );
        ("sim", assoc (match r.reps with x :: _ -> x.sim | [] -> []));
        ("layer", assoc r.layer);
      ] )

let spans_json results =
  J.Obj
    [
      ("schema", int 1);
      ( "spans",
        J.Arr
          (List.concat_map
             (fun r ->
               match r.traced with
               | None -> []
               | Some t ->
                   List.map
                     (function
                       | J.Obj kv ->
                           J.Obj
                             (("workload", str t.workload) :: ("rep", int t.id)
                             :: kv)
                       | j -> j)
                     t.spans)
             results) );
    ]

(* The last line of standard output, for tools that run the benchmark. *)
let summary_line o results =
  let single = match results with [ _ ] -> true | _ -> false in
  let key r name = if single then name else r.w.name ^ "/" ^ name in
  let metrics =
    List.concat_map
      (fun r ->
        if o.trace then
          List.map
            (fun mt ->
              ( key r mt.name,
                J.Obj
                  [
                    ("value", num (List.assoc mt.name r.layer));
                    ("unit", str mt.unit);
                  ] ))
            per_layer
        else
          List.map
            (fun (mt, s) ->
              ( key r mt.name,
                J.Obj [ ("value", num s.median); ("unit", str mt.unit) ] ))
            r.e2e)
      results
  in
  J.Obj
    [
      ("correct", J.Bool (List.for_all (fun r -> r.failures = []) results));
      ( "attempted",
        int (max 1 (List.fold_left (fun a r -> a + r.attempted) 0 results)) );
      ("failed", int (List.fold_left (fun a r -> a + r.failed_ops) 0 results));
      ("metrics", J.Obj metrics);
    ]

(* ------------------------------------------------------------------ *)
(* A set of runs *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A run takes at least this many setup samples per workload, topping
   up with children that stop at their first timed call. *)
let min_setup_samples = 9

let run_set o =
  let load_before = loadavg () in
  let calib = calib_ns () in
  let rng = Random.State.make [| o.seed |] in
  let reps = Hashtbl.create 8 in
  let t0 = Unix.gettimeofday () in
  let more round =
    match (o.reps, o.seconds) with
    | Some n, _ -> round < n
    | None, Some s -> round = 0 || Unix.gettimeofday () -. t0 < s
    | None, None -> round < 5
  in
  let progress fmt =
    Printf.ksprintf (fun s -> if not o.quick then prerr_endline s) fmt
  in
  let round = ref 0 in
  while more !round do
    List.iter
      (fun (w : Workloads.t) ->
        let r = run_rep o w ~id:!round ~traced:false in
        progress "%s rep %d: %.3f s" w.name !round r.wall_s;
        Hashtbl.add reps w.name r)
      (shuffle rng o.workloads);
    incr round
  done;
  let reps_of (w : Workloads.t) = List.rev (Hashtbl.find_all reps w.name) in
  let setups (w : Workloads.t) =
    let own = List.map (fun r -> r.setup_s) (reps_of w) in
    own
    @ List.filter_map
        (fun _ -> setup_sample o w)
        (List.init (max 0 (min_setup_samples - List.length own)) Fun.id)
  in
  let setups =
    List.map (fun (w : Workloads.t) -> (w.name, setups w)) o.workloads
  in
  let traced =
    if not o.trace then []
    else
      List.map
        (fun (w : Workloads.t) ->
          progress "%s traced repetition" w.name;
          (w.name, run_rep o w ~id:!round ~traced:true))
        o.workloads
  in
  let micro = if o.trace then Micro.run ~quick:o.quick else [] in
  let results =
    List.map
      (fun (w : Workloads.t) ->
        aggregate w (reps_of w) (List.assoc_opt w.name traced)
          (List.assoc w.name setups) micro calib)
      o.workloads
  in
  let env =
    J.Obj
      [
        ("nproc", int (Domain.recommended_domain_count ()));
        ("ocaml", str Sys.ocaml_version);
        ("git", str (git_head o.root));
        ("loadavg_before", J.Arr (List.map num load_before));
        ("loadavg_after", J.Arr (List.map num (loadavg ())));
        ("calib_ns", num calib);
      ]
  in
  Printf.printf "suite: seed %d, %d round(s), %s\n" o.seed !round (json_string env);
  List.iter (print_result o) results;
  Option.iter
    (fun path ->
      mkdir_p (Filename.dirname path);
      write_json path
        (J.Obj
           [
             ("schema", int 1);
             ("env", env);
             ("seed", int o.seed);
             ("quick", J.Bool o.quick);
             ("rounds", int !round);
             ("workloads", J.Obj (List.map (result_json o) results));
           ]);
      Printf.printf "wrote %s\n" path)
    o.json;
  if o.trace then begin
    mkdir_p (Filename.dirname o.spans_path);
    write_json o.spans_path (spans_json results);
    Printf.printf "wrote %s\n" o.spans_path
  end;
  let line = summary_line o results in
  print_endline (json_string line);
  results

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json *)

type declared = { d_metric : metric; bound : float option }

let declared ~root =
  let b = read_json (Filename.concat root "BENCHMARK.json") in
  let metrics key =
    List.map
      (fun j ->
        let better =
          match
            Bench_stats.direction_of_string (to_str (J.member "better" j))
          with
          | Some d -> d
          | None -> die "BENCHMARK.json: %s has no valid \"better\"" key
        in
        {
          d_metric =
            {
              name = to_str (J.member "name" j);
              unit = to_str (J.member "unit" j);
              better;
            };
          bound =
            (match J.member "bound" j with Some (J.Num f) -> Some f | _ -> None);
        })
      (to_list (J.member key b))
  in
  let workloads =
    List.map
      (fun j -> (to_str (J.member "name" j), to_str (J.member "why" j)))
      (to_list (J.member "workloads" b))
  in
  (workloads, metrics "end_to_end", metrics "per_layer")

(* The benchmark's own consistency: BENCHMARK.json declares exactly
   the workloads and metrics this program produces. *)
let declaration_errors ~root =
  let workloads, e2e, layer = declared ~root in
  let same what mine theirs =
    let key mt = (mt.name, mt.unit, mt.better) in
    if List.map key mine = List.map (fun d -> key d.d_metric) theirs then []
    else
      [
        Printf.sprintf "BENCHMARK.json %s differ from those suite.exe reports"
          what;
      ]
  in
  (if
     workloads
     = List.map (fun (w : Workloads.t) -> (w.name, w.why)) Workloads.all
   then []
   else [ "BENCHMARK.json workloads or their whys differ from suite.exe's" ])
  @ same "end_to_end metrics" end_to_end e2e
  @ same "per_layer metrics" per_layer layer
  @ List.filter_map
      (fun d ->
        match d.bound with
        | Some b when b > 0.0 && b <= 0.25 -> None
        | _ ->
            Some
              (Printf.sprintf "BENCHMARK.json: %s needs a bound in (0, 0.25]"
                 d.d_metric.name))
      e2e

(* ------------------------------------------------------------------ *)
(* --quick: a self-test that keeps the benchmark from rotting *)

let quick o =
  let json = Option.value o.json ~default:".benchsuite/quick.json" in
  let o = { o with json = Some json } in
  let results = run_set o in
  let errors = ref (declaration_errors ~root:o.root) in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let doc = read_json json in
  if to_list (J.member "spans" (read_json o.spans_path)) = [] then
    fail "%s holds no spans" o.spans_path;
  List.iter
    (fun r ->
      List.iter (fail "%s: check failed: %s" r.w.name) r.failures;
      let w = get [ "workloads"; r.w.name ] doc in
      List.iter
        (fun mt ->
          if get [ "metrics"; mt.name; "median" ] (Option.get w) = None then
            fail "%s: end-to-end metric %s missing from %s" r.w.name mt.name json)
        end_to_end;
      List.iter
        (fun mt ->
          if get [ "layer"; mt.name ] (Option.get w) = None then
            fail "%s: per-layer metric %s missing from %s" r.w.name mt.name json)
        per_layer)
    results;
  match List.rev !errors with
  | [] -> print_endline "quick: ok"
  | es ->
      List.iter (Printf.eprintf "quick: %s\n") es;
      exit 1

(* ------------------------------------------------------------------ *)
(* --compare *)

let compare_runs ~root base_path next_path =
  let _, e2e, _ = declared ~root in
  let base = read_json base_path and next = read_json next_path in
  let workloads j = to_obj (J.member "workloads" j) in
  let worse = ref 0 in
  Printf.printf "%-16s %-20s %12s %12s %8s %8s  %s\n" "workload" "metric" "base"
    "new" "change" "bound" "verdict";
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name (workloads next) with
      | None -> Printf.printf "%-16s missing from %s\n" name next_path
      | Some n ->
          List.iter
            (fun d ->
              let mt = d.d_metric in
              let samples j =
                List.map
                  (fun x -> to_num (Some x))
                  (to_list (get [ "metrics"; mt.name; "samples" ] j))
              in
              match (samples b, samples n, d.bound) with
              | (_ :: _ as sb), (_ :: _ as sn), Some bound ->
                  let v =
                    Bench_stats.verdict ~better:mt.better ~bound ~base:sb ~next:sn
                  in
                  if v = Bench_stats.Worse then incr worse;
                  let mb = Bench_stats.median sb and mn = Bench_stats.median sn in
                  Printf.printf "%-16s %-20s %12.6g %12.6g %+7.1f%% %7.0f%%  %s\n"
                    name mt.name mb mn
                    (100.0 *. ((mn /. mb) -. 1.0))
                    (100.0 *. bound) (Bench_stats.verdict_name v)
              | _ -> Printf.printf "%-16s %-20s no samples\n" name mt.name)
            e2e;
          let same k = get [ k ] b = get [ k ] n in
          Printf.printf "%-16s simulated outputs %s, digest %s\n" name
            (if same "sim" then "identical" else "DIFFER")
            (if same "digest" then "identical" else "DIFFERS"))
    (workloads base);
  if !worse > 0 then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s expects an integer" flag
  in
  let rec parse acc = function
    | [] -> acc
    | flag :: v :: rest
      when List.mem flag
             [
               "--workload"; "--seed"; "--reps"; "--seconds"; "--trace"; "--json";
               "--spans"; "--root"; "--child"; "--rep"; "--golden";
             ] ->
        parse ((flag, v) :: acc) rest
    | (("--quick" | "--traced" | "--setup-only") as flag) :: rest ->
        parse ((flag, "") :: acc) rest
    | "--compare" :: a :: b :: rest ->
        parse (("--compare", a) :: ("--compare-new", b) :: acc) rest
    | arg :: _ -> die "bad argument %s (see the head of benchsuite/suite.ml)" arg
  in
  let kv = List.rev (parse [] args) in
  let one k = List.assoc_opt k kv in
  let has k = List.mem_assoc k kv in
  let seed = Option.fold ~none:0 ~some:(int_arg "--seed") (one "--seed") in
  let root = Option.value ~default:"." (one "--root") in
  match (one "--child", one "--compare") with
  | Some workload, _ ->
      child ~workload ~seed
        ~rep:(Option.fold ~none:0 ~some:(int_arg "--rep") (one "--rep"))
        ~quick:(has "--quick") ~traced:(has "--traced")
        ~setup_only:(has "--setup-only")
        ~golden:(Option.value ~default:"golden" (one "--golden"))
  | None, Some base -> compare_runs ~root base (Option.get (one "--compare-new"))
  | None, None ->
      let names =
        List.filter_map
          (fun (k, v) -> if k = "--workload" && v <> "all" then Some v else None)
          kv
      in
      let o =
        {
          workloads =
            (if names = [] then Workloads.all else List.map find_workload names);
          seed;
          reps =
            Option.map
              (fun v ->
                match int_arg "--reps" v with
                | n when n > 0 -> n
                | _ -> die "--reps expects a positive integer")
              (one "--reps");
          seconds =
            Option.map
              (fun s ->
                match float_of_string_opt s with
                | Some f when f > 0.0 -> f
                | _ -> die "--seconds expects a positive number")
              (one "--seconds");
          trace =
            (match one "--trace" with
            | None | Some "1" -> true
            | Some "0" -> false
            | Some _ -> die "--trace expects 0 or 1");
          quick = has "--quick";
          json = one "--json";
          spans_path = Option.value ~default:".benchsuite/spans.json" (one "--spans");
          root;
        }
      in
      if o.quick then quick { o with reps = Some 1; trace = true }
      else
        let results = run_set o in
        if List.exists (fun r -> r.failures <> []) results then exit 1
