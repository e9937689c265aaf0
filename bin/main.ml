(* interweave: run the paper's experiments from the command line. *)

open Cmdliner

(* Every failing check-style path exits nonzero through this one
   helper, so the exit-code contract is in one place instead of
   scattered per-branch [exit] calls. *)
let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* The plane and the fleet reject a config they cannot run with an
   [Invalid_argument] naming the field; the commands that run them
   report it like a bad flag. *)
let or_die cmd f = try f () with Invalid_argument msg -> die "%s: %s" cmd msg

(* The ambient sampling period of [cmd]'s runs; like serve's flag, a
   negative or NaN period exits 1 naming the flag. *)
let set_sample_us cmd us =
  if not (us >= 0.0) then die "%s: --sample-us must be >= 0" cmd;
  Iw_obs.Series.set_period_us us

(* A trace ring for [cmd]; a capacity below 1 exits 1 naming the flag. *)
let ring cmd capacity =
  if capacity < 1 then die "%s: --ring-capacity must be >= 1" cmd;
  Iw_obs.Trace.ring ~capacity ()

let find_experiment id =
  try Interweave.Experiments.find id
  with Not_found -> die "unknown experiment %s (try 'interweave list')" id

(* The one CSV writer: a cell holding a comma or a quote is quoted,
   with its quotes doubled. *)
let csv_line cells =
  let escape cell =
    if String.exists (fun c -> c = ',' || c = '"') cell then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
    else cell
  in
  String.concat "," (List.map escape cells)

let write_csv path rows =
  let oc = open_out path in
  List.iter (fun row -> output_string oc (csv_line row ^ "\n")) rows;
  close_out oc

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Global RNG seed offset folded into every stream the run creates; \
           0 (the default) keeps the built-in seeds.")

let list_cmd =
  let run () =
    List.iter
      (fun (e : Interweave.Experiments.experiment) ->
        Printf.printf "%-4s %s\n     paper: %s\n" e.id e.title e.paper_claim)
      (Interweave.Experiments.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List every reproducible experiment")
    Term.(const run $ const ())

let jobs_arg =
  Arg.(
    value
    & opt int (Interweave.Driver.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run experiments on up to $(docv) domains (outputs still print in \
           registry order); 1 means serial.")

(* The registry's ids as "E1..E16, A1..A5, ...": one range per run of
   ids sharing a prefix letter, in registry order. *)
let id_ranges =
  List.fold_left
    (fun acc (e : Interweave.Experiments.experiment) ->
      match acc with
      | (first, _) :: rest when first.[0] = e.id.[0] -> (first, e.id) :: rest
      | _ -> (e.id, e.id) :: acc)
    []
    (Interweave.Experiments.all ())
  |> List.rev_map (fun (first, last) ->
         if first = last then first else first ^ ".." ^ last)
  |> String.concat ", "

let run_cmd =
  let ids =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"ID"
          ~doc:(Printf.sprintf "Experiment ids (%s) or 'all'" id_ranges))
  in
  let markdown =
    Arg.(value & flag & info [ "markdown" ] ~doc:"Emit Markdown tables")
  in
  let sample_us =
    Arg.(
      value & opt float 0.0
      & info [ "sample-us" ] ~docv:"US"
          ~doc:
            "Sample windowed telemetry every $(docv) of virtual time in \
             every service/fleet run (tables are byte-identical either \
             way; the series ride along for exporters). 0 disables.")
  in
  let run ids markdown jobs seed sample_us =
    Iw_engine.Rng.set_global_seed seed;
    set_sample_us "run" sample_us;
    let targets =
      if List.mem "all" ids then Interweave.Experiments.all ()
      else List.map find_experiment ids
    in
    or_die "run" (fun () ->
        Interweave.Driver.parallel_map ~jobs
          (fun (e : Interweave.Experiments.experiment) ->
            if markdown then
              Printf.sprintf "## [%s] %s\n\nPaper: %s\n\n%s" e.id e.title
                e.paper_claim
                (String.concat ""
                   (List.map
                      (fun t -> Interweave.Table.to_markdown t ^ "\n")
                      (e.tables ())))
            else Interweave.Experiments.run_to_string e)
          targets)
    |> List.iter print_string
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiments and print their tables")
    Term.(const run $ ids $ markdown $ jobs_arg $ seed_arg $ sample_us)

let csv_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Output directory for <id>_<n>.csv files")
  in
  let ids =
    Arg.(
      value
      & opt_all string []
      & info [ "only" ] ~docv:"ID" ~doc:"Restrict to these experiment ids")
  in
  let run dir ids jobs seed =
    Iw_engine.Rng.set_global_seed seed;
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let targets =
      match ids with
      | [] -> Interweave.Experiments.all ()
      | ids -> List.map find_experiment ids
    in
    (* Compute in parallel; write and report serially, in registry
       order, so the output and file contents match a serial run. *)
    Interweave.Driver.parallel_map ~jobs
      (fun (e : Interweave.Experiments.experiment) -> (e.id, e.tables ()))
      targets
    |> List.iter (fun (id, tables) ->
           List.iteri
             (fun i (t : Interweave.Table.t) ->
               let path = Filename.concat dir (Printf.sprintf "%s_%d.csv" id i) in
               write_csv path (t.headers :: t.rows);
               Printf.printf "wrote %s (%s)\n" path t.title)
             tables)
  in
  Cmd.v
    (Cmd.info "csv" ~doc:"Run experiments and write their tables as CSV")
    Term.(const run $ dir $ ids $ jobs_arg $ seed_arg)

let stacks_cmd =
  let run () =
    let plat = Iw_hw.Platform.knl in
    List.iter
      (fun stack ->
        Printf.printf "%s\n  event delivery: %d cycles, timer mechanism: %d cycles\n"
          (Interweave.Stack.describe stack)
          (Interweave.Stack.event_delivery_cycles stack)
          (Interweave.Stack.timer_mechanism_cost stack))
      [ Interweave.Stack.commodity plat; Interweave.Stack.interwoven plat ]
  in
  Cmd.v
    (Cmd.info "stacks" ~doc:"Describe the commodity and interwoven stacks")
    Term.(const run $ const ())

let trace_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id to run under tracing (e.g. E3)")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"PATH"
          ~doc:
            "Chrome trace-event JSON output path (load it in Perfetto); \
             defaults to $(i,ID).trace.json so traces of different \
             experiments don't clobber each other")
  in
  let capacity =
    Arg.(
      value
      & opt int 262_144
      & info
          [ "capacity"; "ring-capacity" ]
          ~docv:"N"
          ~doc:"Ring-buffer capacity in events; oldest events drop beyond it")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the written JSON and fail if malformed or if the ring \
             dropped events (a truncated ring corrupts the export)")
  in
  let flows =
    Arg.(
      value & flag
      & info [ "flows" ]
          ~doc:
            "Also emit Chrome flow events stitching each request's hops \
             (front tier, machine, worker) into one causal arrow chain; \
             only fleet experiments produce them")
  in
  let sample_us =
    Arg.(
      value & opt float 0.0
      & info [ "sample-us" ] ~docv:"US"
          ~doc:
            "Sample windowed telemetry every $(docv) of virtual time and \
             render the series as Perfetto counter lanes in the trace")
  in
  let run id out capacity check flows sample_us =
    let e = find_experiment id in
    let out =
      match out with
      | Some p -> p
      | None -> Printf.sprintf "%s.trace.json" id
    in
    let tr = ring "trace" capacity in
    Iw_obs.Trace.set_flows tr flows;
    set_sample_us "trace" sample_us;
    Iw_obs.Series.clear_published ();
    (* Run serially under an ambient traced context: every kernel,
       CPU, and runtime the experiment creates inherits the ring. *)
    let text, _, _ =
      or_die "trace" (fun () ->
          Interweave.Experiments.run_with_counters ~trace:tr e)
    in
    print_string text;
    let series = Iw_obs.Series.published () in
    Iw_obs.Series.set_period_us 0.0;
    Iw_obs.Chrome.write_file ~series tr out;
    let dropped = Iw_obs.Trace.dropped tr in
    Printf.printf "wrote %s: %d events (%d dropped, %d series)\n" out
      (Iw_obs.Trace.length tr) dropped (List.length series);
    if check then begin
      (match Iw_obs.Chrome.validate_file out with
      | Ok n -> Printf.printf "validated: %d events ok\n" n
      | Error msg -> die "invalid trace: %s" msg);
      if flows then begin
        match Iw_obs.Chrome.cross_process_flows_file out with
        | Ok 0 -> die "no flow crosses two processes (machines) in %s" out
        | Ok n -> Printf.printf "flows: %d cross-process request(s)\n" n
        | Error msg -> die "invalid trace: %s" msg
      end;
      if dropped > 0 then
        die
          "trace ring dropped %d events; rerun with --ring-capacity %d or more"
          dropped
          (Iw_obs.Trace.emitted tr)
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one experiment with the trace bus on and export a \
          Perfetto-loadable Chrome trace-event JSON file")
    Term.(const run $ id $ out $ capacity $ check $ flows $ sample_us)

let profile_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id to profile (e.g. E1)")
  in
  let folded_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"PATH"
          ~doc:"Write folded-stack lines for flamegraph.pl / speedscope")
  in
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the printed profile table")
  in
  let capacity =
    Arg.(
      value
      & opt int 1_048_576
      & info [ "ring-capacity" ] ~docv:"N"
          ~doc:"Trace ring capacity; raise it if events are dropped")
  in
  let diff_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff" ] ~docv:"ID2"
          ~doc:
            "Profile a second experiment too and report the frames whose \
             self-cycle share moved between the runs instead of a single \
             profile")
  in
  let threshold =
    Arg.(
      value & opt float 1.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"Minimum share movement (percentage points) a frame must show \
                to appear in the --diff report")
  in
  let profile_of id capacity =
    let e = find_experiment id in
    let tr = ring "profile" capacity in
    ignore
      (or_die "profile" (fun () ->
           Interweave.Experiments.run_with_counters ~trace:tr e));
    Iw_obs.Profile.of_trace tr
  in
  let run id folded_out top capacity diff_id threshold =
    let p = profile_of id capacity in
    (match diff_id with
    | Some id2 ->
        let p2 = profile_of id2 capacity in
        print_string
          (Iw_obs.Profile.render_diff ~threshold ~a_name:id ~b_name:id2 p p2)
    | None -> print_string (Iw_obs.Profile.render_top ~top p));
    if p.Iw_obs.Profile.dropped > 0 then
      Printf.eprintf
        "warning: ring dropped %d events — the profile is truncated; rerun \
         with --ring-capacity %d or more\n"
        p.Iw_obs.Profile.dropped
        (p.Iw_obs.Profile.span_count + p.Iw_obs.Profile.instant_count
        + p.Iw_obs.Profile.dropped);
    match folded_out with
    | None -> ()
    | Some path -> (
        Iw_obs.Folded.write_file p path;
        match
          Iw_obs.Folded.check_file path ~total:(Iw_obs.Profile.total_cycles p)
        with
        | Ok n -> Printf.printf "wrote %s: %d stacks (self sum = total)\n" path n
        | Error msg -> die "folded check failed for %s: %s" path msg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one experiment under tracing, reconstruct per-CPU span stacks, \
          and print a self/total cycle profile (optionally exporting \
          folded stacks for flamegraph.pl or speedscope); with --diff, \
          compare two experiments' self-cycle shares frame by frame")
    Term.(
      const run $ id $ folded_out $ top $ capacity $ diff_id $ threshold)

let golden_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id (e.g. E3)")
  in
  (* One run under a counting trace sink feeds all three sections:
     probes only tally, so the tables match an untraced run. *)
  let run id =
    let e = find_experiment id in
    let tr = Iw_obs.Trace.counting () in
    let output, counters, _ =
      Interweave.Experiments.run_with_counters ~trace:tr e
    in
    print_string
      (Iw_obs.Golden.render_file
         ~header:
           [
             Printf.sprintf
               "%s (%s): counters, span tallies, rendered tables" e.id e.title;
             "dune runtest diffs this file with `interweave golden " ^ e.id
             ^ "`; dune promote refreshes it";
           ]
         ~counters ~spans:(Iw_obs.Trace.shape_counts tr) ~output)
  in
  Cmd.v
    (Cmd.info "golden"
       ~doc:
         "Run one experiment under a counting trace and print its pinned \
          golden file: machine-wide counter totals, then a '## spans' \
          section of per-category span tallies and a '## output' section \
          with the rendered tables")
    Term.(const run $ id)

let sweep_cmd =
  let field =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FIELD"
          ~doc:
            "Cost-model field to sweep (default tick_update), or \
             $(i,FIELD1,FIELD2) for a 2-D grid")
  in
  let values =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "values" ] ~docv:"V1,V2,..."
          ~doc:"Explicit values; default 0,v/4,v/2,v,2v,4v around the preset")
  in
  let values2 =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "values2" ] ~docv:"V1,V2,..."
          ~doc:"Values for the second field of a 2-D grid (columns)")
  in
  let os =
    Arg.(
      value
      & opt (enum [ ("nk", `Nk); ("linux", `Linux) ]) `Nk
      & info [ "os" ] ~docv:"OS" ~doc:"Personality for the 2-D grid probe")
  in
  let list_fields =
    Arg.(value & flag & info [ "list" ] ~doc:"List sweepable cost fields")
  in
  let run field values values2 os list_fields =
    let module Sweep = Interweave.Machine.Sweep in
    let plat = Iw_hw.Platform.small in
    let resolve fname =
      match Sweep.find fname with
      | Some fd -> fd
      | None -> die "unknown cost field %s (try 'sweep --list')" fname
    in
    if list_fields then
      List.iter
        (fun (fd : Sweep.field) ->
          Printf.printf "%-28s %s (default %d)\n" fd.f_name fd.f_doc
            (fd.get Iw_hw.Platform.small.Iw_hw.Platform.costs))
        Sweep.fields
    else
      let fname = Option.value field ~default:"tick_update" in
      or_die "sweep" @@ fun () ->
      match String.split_on_char ',' fname with
      | [ f1; f2 ] ->
          let fd1 = resolve f1 and fd2 = resolve f2 in
          let vs1 =
            match values with
            | Some vs -> vs
            | None -> Sweep.default_values plat fd1
          in
          let vs2 =
            match values2 with
            | Some vs -> vs
            | None -> Sweep.default_values plat fd2
          in
          print_string
            (Interweave.Table.render (Sweep.grid ~plat ~os fd1 fd2 vs1 vs2))
      | [ _ ] ->
          let fd = resolve fname in
          let values =
            match values with
            | Some vs -> vs
            | None -> Sweep.default_values plat fd
          in
          print_string (Interweave.Table.render (Sweep.sensitivity fd values))
      | _ -> die "sweep: give FIELD or FIELD1,FIELD2"
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Vary one hoisted cost-model field across a range and print a \
          sensitivity table for the pinned probe workload, or a 2-D \
          FIELD1,FIELD2 grid of elapsed cycles")
    Term.(const run $ field $ values $ values2 $ os $ list_fields)

(* The fault and recovery counters [faults] reports, as (CSV column,
   single-run label, counter); a single run prints one line per inner
   list. *)
let recovery_counters =
  Iw_obs.Counter.
    [
      [
        ("injected", "injected", Fault_injected);
        ("ipi_retry", "ipi-retries", Ipi_retry);
        ("watchdog_fire", "watchdog", Watchdog_fire);
        ("virtine_relaunch", "relaunches", Virtine_relaunch);
        ("pool_evict", "pool-evicts", Pool_evict);
        ("move_rollback", "rollbacks", Move_rollback);
      ];
      [
        ("dir_ack_retry", "dir-ack-retries", Dir_ack_retry);
        ("dir_stale_refetch", "dir-stale-refetches", Dir_stale_refetch);
        ("barrier_recover", "barrier-recoveries", Barrier_recover);
      ];
      [
        ("peer_steal", "peer-steals", Peer_steal);
        ("hedge_sent", "hedges", Hedge_sent);
        ("admission_shed", "admission-sheds", Admission_shed);
        ("corrupt_retry", "corrupt-retries", Corrupt_retry);
      ];
      [
        ("nic_drop", "nic-drops", Nic_rx_drops);
        ("nic_irq_recover", "nic-irq-recoveries", Nic_irq_recover);
      ];
    ]

let faults_cmd =
  let id =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ID"
          ~doc:"Experiment id to run under fault injection (e.g. E3, R1)")
  in
  let list_kinds =
    Arg.(
      value & flag
      & info [ "list-kinds" ]
          ~doc:
            "Print every fault kind the plan can arm, one per line, and exit \
             (the source of truth for --kinds)")
  in
  let rate =
    Arg.(
      value & opt float 1e-3
      & info [ "rate" ] ~docv:"P"
          ~doc:"Per-opportunity fault probability in [0,1]")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Fault-plan RNG seed")
  in
  let kinds =
    Arg.(
      value
      & opt (some string) None
      & info [ "kinds" ] ~docv:"K1,K2,..."
          ~doc:
            "Comma-separated fault kinds to arm (e.g. ipi-drop,timer-late); \
             default: all kinds")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Fail unless the run completed and, at a nonzero rate, at least \
             one fault was actually injected (guards the injection wiring)")
  in
  let rates =
    Arg.(
      value
      & opt (some string) None
      & info [ "rates" ] ~docv:"P1,P2,..."
          ~doc:
            "Sweep a comma-separated list of fault rates instead of one \
             --rate; reports one row of fault/recovery counters per rate")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH"
          ~doc:
            "Write the rate sweep as CSV to $(docv) (implies a sweep; \
             without --rates a default rate range is used)")
  in
  let run id rate seed kinds check rates csv list_kinds =
    if list_kinds then begin
      List.iter
        (fun k -> print_endline (Iw_faults.Plan.kind_name k))
        Iw_faults.Plan.all_kinds;
      exit 0
    end;
    let id =
      match id with
      | Some id -> id
      | None -> die "faults: experiment ID required (or use --list-kinds)"
    in
    let e = find_experiment id in
    let kinds =
      match kinds with
      | None -> Iw_faults.Plan.all_kinds
      | Some s ->
          String.split_on_char ',' s
          |> List.map (fun k ->
                 let k = String.trim k in
                 match Iw_faults.Plan.kind_of_string k with
                 | Some k -> k
                 | None ->
                     die "unknown fault kind %s (known: %s)" k
                       (String.concat ", "
                          (List.map Iw_faults.Plan.kind_name
                             Iw_faults.Plan.all_kinds)))
    in
    if not (rate >= 0.0 && rate <= 1.0) then
      die "faults: --rate must be in [0,1]";
    (* One run of [e] under its own fault plan: the output or the
       error that stopped it, and the run's counter totals. *)
    let run_at rate =
      Interweave.Experiments.run_faulted ~rate ~seed ~kinds (fun () ->
          try Ok (Interweave.Experiments.run_to_string e)
          with Failure msg | Invalid_argument msg -> Error msg)
    in
    let sweep_rates =
      match rates with
      | Some s ->
          Some
            (String.split_on_char ',' s
            |> List.map (fun r ->
                   let r = String.trim r in
                   match float_of_string_opt r with
                   | Some f when f >= 0.0 && f <= 1.0 -> f
                   | _ -> die "faults: bad rate %s in --rates (need [0,1])" r))
      | None -> (
          match csv with
          | Some _ -> Some [ 0.0; 1e-4; 1e-3; 1e-2; 5e-2 ]
          | None -> None)
    in
    match sweep_rates with
    | Some sweep_rates ->
        (* One row of recovery counters per rate; the run must survive
           every rate, which is the cross-layer recovery claim. *)
        let counter_cols = List.concat recovery_counters in
        let rows =
          List.map
            (fun r ->
              let out, totals = run_at r in
              (match out with
              | Ok _ -> ()
              | Error msg ->
                  die "faults: %s run failed under injection at rate %g: %s"
                    e.id r msg);
              ( r,
                List.map
                  (fun (_, _, c) -> Iw_obs.Counter.get totals c)
                  counter_cols ))
            sweep_rates
        in
        let table =
          ("rate" :: List.map (fun (col, _, _) -> col) counter_cols)
          :: List.map
               (fun (r, cs) -> Printf.sprintf "%g" r :: List.map string_of_int cs)
               rows
        in
        (match csv with
        | Some path ->
            write_csv path table;
            Printf.printf "wrote %s: %d rates swept over %s\n" path
              (List.length sweep_rates) e.id
        | None -> List.iter (fun row -> print_endline (csv_line row)) table);
        if check then begin
          let nonzero = List.filter (fun (r, _) -> r > 0.0) rows in
          if
            nonzero <> []
            && List.for_all (fun (_, cs) -> List.hd cs = 0) nonzero
          then
            die
              "faults --check: no faults injected at any nonzero rate \
               (injection points not reached?)"
        end
    | None ->
    let out, totals = run_at rate in
    (match out with
    | Ok text -> print_string text
    | Error msg -> die "faults: %s run failed under injection: %s" e.id msg);
    let g id = Iw_obs.Counter.get totals id in
    Printf.printf "fault plan: rate %g, seed %d, kinds %s\n" rate seed
      (String.concat "," (List.map Iw_faults.Plan.kind_name kinds));
    List.iter
      (fun line ->
        print_endline
          ("  "
          ^ String.concat " | "
              (List.map
                 (fun (_, label, c) -> Printf.sprintf "%s %d" label (g c))
                 line)))
      recovery_counters;
    if check && rate > 0.0 && g Iw_obs.Counter.Fault_injected = 0 then
      die
        "faults --check: no faults injected at rate %g (injection points not \
         reached?)"
        rate
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run one experiment under an ambient deterministic fault plan \
          (dropped IPIs, dead timers, dark cores, ...) and report the \
          fault/recovery counters; the R experiments additionally scope \
          their own per-row plans.  --rates/--csv sweep a rate range into \
          one counter row per rate")
    Term.(
      const run $ id $ rate $ seed $ kinds $ check $ rates $ csv $ list_kinds)

(* What [serve] runs, as its flags set it.  Knobs both modes share
   land in [plane], and a fleet copies them from there; fleet-only
   knobs land in [fleet]; the rest belong to the command. *)
type serve_settings = {
  plane : Iw_service.Plane.config;
  fleet : Iw_service.Fleet.config;
  rpss : float list;
  duration_ms : float;
  bursty : bool;
  closed : int;
  think_us : float;
  machines : int;
  hetero : Iw_service.Fleet.mspec list option;
  fleet_serial : bool;
  sample_us : float;
  faults : float;
  fault_kinds : Iw_faults.Plan.kind list option;
  csv : string option;
  series_csv : string option;
  alloc_budget : float option;
  jobs : int;
  global_seed : int;
}

(* One serve flag: its command-line term, and the setter that lands
   its value in the settings. *)
type knob = Knob : 'a Term.t * (serve_settings -> 'a -> serve_settings) -> knob

(* [arg] carries the flag's default; a value outside [range] (what it
   must be, and the test) exits 1 naming the flag. *)
let knob ?range ?docv name doc arg set =
  Knob
    ( Arg.(value & arg (info [ name ] ?docv ~doc)),
      fun s v ->
        (match range with
        | Some (what, ok) when not (ok v) ->
            die "serve: --%s must be %s" name what
        | _ -> ());
        set s v )

(* A flag naming one of a few values: [parse] and [print] map between
   the names and the values. *)
let choice ~docv name doc parse print default set =
  knob ~docv name doc
    Arg.(opt string (print default))
    (fun s v ->
      match parse v with
      | Some x -> set s x
      | None -> die "serve: unknown --%s %s (see serve --help)" name v)

let positive = ("> 0", fun v -> v > 0.0)
let non_negative = (">= 0", fun v -> v >= 0.0)
let fraction = ("in [0,1]", fun v -> v >= 0.0 && v <= 1.0)
let at_least n = (Printf.sprintf ">= %d" n, fun v -> v >= n)

let parse_tail spec =
  let fl tok what =
    match float_of_string_opt tok with
    | Some f -> f
    | None -> die "serve: bad %s %s in --tail" what tok
  in
  let demand =
    match String.split_on_char ':' (String.trim spec) with
    | [ "pareto"; a; mn; mx ] ->
        Iw_service.Workload.Dpareto
          { alpha = fl a "alpha"; xmin_us = fl mn "min"; xmax_us = fl mx "max" }
    | [ "lognorm"; med; sg ] ->
        Iw_service.Workload.Dlognorm
          { median_us = fl med "median"; sigma = fl sg "sigma" }
    | _ ->
        die "serve: --tail wants pareto:ALPHA:MIN:MAX or lognorm:MEDIAN:SIGMA"
  in
  (try Iw_service.Workload.validate_demand demand
   with Invalid_argument m -> die "serve: --tail: %s" m);
  demand

(* COUNTxKIND[:WORKERS] joined by '+'. *)
let parse_hetero spec =
  let parse_tok tok =
    let count, rest =
      match String.index_opt tok 'x' with
      | Some i ->
          ( (match int_of_string_opt (String.sub tok 0 i) with
            | Some c when c > 0 -> c
            | _ -> die "serve: bad count in --hetero token %s" tok),
            String.sub tok (i + 1) (String.length tok - i - 1) )
      | None -> die "serve: --hetero token %s is not COUNTxKIND" tok
    in
    let kind, wk =
      match String.index_opt rest ':' with
      | Some i ->
          ( String.sub rest 0 i,
            match
              int_of_string_opt
                (String.sub rest (i + 1) (String.length rest - i - 1))
            with
            | Some w when w > 0 -> Some w
            | _ -> die "serve: bad worker count in --hetero token %s" tok )
      | None -> (rest, None)
    in
    let spec =
      match kind with
      | "knl" -> Iw_service.Fleet.knl_spec ?workers:wk ()
      | "srv" -> Iw_service.Fleet.server_spec ?workers:wk ()
      | k -> die "serve: unknown machine kind %s in --hetero (knl, srv)" k
    in
    List.init count (fun _ -> spec)
  in
  List.concat_map parse_tok (String.split_on_char '+' (String.trim spec))

let parse_fault_kinds kinds =
  List.map
    (fun k ->
      let k = String.trim k in
      match Iw_faults.Plan.kind_of_string k with
      | Some k -> k
      | None -> die "serve: unknown fault kind %s in --fault-kinds" k)
    (String.split_on_char ',' kinds)

let serve_cmd =
  let open Iw_service in
  let d = Plane.default ~plat:Iw_hw.Platform.knl in
  let f = Fleet.default () in
  let knobs =
    [
      (* Shared by the plane and the fleet; defaults from [Plane.default]. *)
      choice ~docv:"OS" "os" "OS personality: nk or linux" Plane.os_of_string
        Plane.os_name d.os (fun s os -> { s with plane = { s.plane with os } });
      choice ~docv:"B" "backend" "Request execution backend: fiber or virtine"
        (function
          | "fiber" -> Some Plane.Fiber_exec
          | "virtine" ->
              Some
                (Plane.Virtine_exec
                   {
                     vconfig =
                       {
                         Iw_virtine.Wasp.default with
                         profile = Iw_virtine.Wasp.Bespoke_16;
                         snapshot = true;
                         pooled = true;
                       };
                     pool = 0 (* sized by --pool, next *);
                   })
          | _ -> None)
        Plane.backend_name d.backend
        (fun s backend -> { s with plane = { s.plane with backend } });
      (* After --backend: sizes the warm pool of the virtine it chose. *)
      knob ~docv:"N" ~range:(at_least 0) "pool"
        "Virtine warm-pool size (virtine backend)" Arg.(opt int 16)
        (fun s pool ->
          match s.plane.backend with
          | Plane.Virtine_exec v ->
              {
                s with
                plane = { s.plane with backend = Virtine_exec { v with pool } };
              }
          | Plane.Fiber_exec -> s);
      choice ~docv:"P" "policy" "Dispatch policy: rr, random, jsq, po2 or wjsq"
        Dispatch.of_string Dispatch.name d.policy (fun s policy ->
          { s with plane = { s.plane with policy } });
      choice ~docv:"O" "order" "Queue order: fifo or priority"
        Squeue.order_of_string Squeue.order_name d.order (fun s order ->
          { s with plane = { s.plane with order } });
      knob ~docv:"N" ~range:(at_least 1) "workers"
        "Worker CPUs (one queue each)" Arg.(opt int d.workers)
        (fun s workers -> { s with plane = { s.plane with workers } });
      knob ~docv:"US" ~range:non_negative "work-us"
        "Request body service demand" Arg.(opt float d.work_us)
        (fun s work_us -> { s with plane = { s.plane with work_us } });
      knob ~docv:"N" ~range:(at_least 1) "cap"
        (Printf.sprintf "Per-worker queue bound (drop-tail), at most %d"
           Squeue.max_cap)
        Arg.(opt int d.queue_cap)
        (fun s queue_cap ->
          if queue_cap > Squeue.max_cap then
            die "serve: --cap must be <= %d" Squeue.max_cap;
          { s with plane = { s.plane with queue_cap } });
      knob ~docv:"F" ~range:fraction "hi-frac"
        "Fraction of requests marked high priority" Arg.(opt float d.hi_frac)
        (fun s hi_frac -> { s with plane = { s.plane with hi_frac } });
      knob ~docv:"SPEC" "tail"
        "Heavy-tailed per-request service demand: pareto:ALPHA:MIN:MAX or \
         lognorm:MEDIAN:SIGMA (microseconds); default every request costs \
         --work-us"
        Arg.(opt (some string) None)
        (fun s -> function
          | None -> s
          | Some spec ->
              { s with plane = { s.plane with demand = parse_tail spec } });
      knob ~docv:"N" "plane-seed"
        "Service-plane seed (arrivals, dispatch, kernel boot)"
        Arg.(opt int d.seed)
        (fun s seed -> { s with plane = { s.plane with seed } });
      (* The load. *)
      knob ~docv:"R" ~range:("> 0", List.for_all (fun r -> r > 0.0)) "rps"
        "Offered load in requests/s; repeat for a sweep (one row each)"
        Arg.(opt_all float [ Workload.offered_rps d.workload ])
        (fun s rpss -> { s with rpss });
      knob ~docv:"MS" ~range:positive "duration" "Run length in milliseconds"
        Arg.(opt float (Workload.duration_us d.workload /. 1000.0))
        (fun s duration_ms -> { s with duration_ms });
      knob "bursty"
        "MMPP on/off arrivals (phases of 1.8x / 0.2x the given rate, 5 ms \
         mean dwell) instead of Poisson"
        Arg.flag
        (fun s bursty -> { s with bursty });
      knob ~docv:"N" ~range:(at_least 0) "closed"
        "Closed loop with $(docv) clients instead of open-loop arrivals"
        Arg.(opt int 0)
        (fun s closed -> { s with closed });
      knob ~docv:"US" ~range:positive "think-us" "Closed-loop client think time"
        Arg.(opt float 500.0)
        (fun s think_us -> { s with think_us });
      (* Fleet only; defaults from [Fleet.default] and its [Net.default]. *)
      knob ~docv:"N" ~range:(at_least 0) "machines"
        "Serve from a fleet of $(docv) identical knl-like machines behind a \
         balancing front tier over a modeled network (0 = the \
         single-machine plane)"
        Arg.(opt int 0)
        (fun s machines -> { s with machines });
      knob ~docv:"SPEC" "hetero"
        "Heterogeneous fleet spec: COUNTxKIND[:WORKERS] joined by '+', e.g. \
         2xknl:4+2xsrv:2 (kinds: knl, srv); implies fleet mode"
        Arg.(opt (some string) None)
        (fun s spec -> { s with hetero = Option.map parse_hetero spec });
      knob ~docv:"US" ~range:positive "net-lat"
        "Fleet link one-way latency (also the sync window)"
        Arg.(opt float f.fc_net.nc_lat_us)
        (fun s nc_lat_us ->
          let fc_net = { s.fleet.fc_net with nc_lat_us } in
          { s with fleet = { s.fleet with fc_net } });
      knob ~docv:"GBPS" ~range:positive "net-bw"
        "Fleet link bandwidth per direction" Arg.(opt float f.fc_net.nc_gbps)
        (fun s nc_gbps ->
          let fc_net = { s.fleet.fc_net with nc_gbps } in
          { s with fleet = { s.fleet with fc_net } });
      knob ~docv:"US" ~range:non_negative "gossip-us"
        "Queue-depth gossip period for the fleet balancer (0 disables)"
        Arg.(opt float f.fc_gossip_us)
        (fun s fc_gossip_us -> { s with fleet = { s.fleet with fc_gossip_us } });
      knob "fleet-serial"
        "Advance fleet machines on one domain instead of spreading them \
         over one domain per core (byte-identical results; the smoke test \
         compares both)"
        Arg.flag
        (fun s fleet_serial -> { s with fleet_serial });
      knob ~docv:"US" ~range:non_negative "slo-us"
        "End-to-end latency SLO: responses within $(docv) count as good, \
         slower ones and exhausted retries as bad; adds slo_good, slo_total \
         and burn_x1000 columns. 0 disables"
        Arg.(opt float f.fc_slo_us)
        (fun s fc_slo_us -> { s with fleet = { s.fleet with fc_slo_us } });
      knob ~docv:"F" ~range:("in (0,1)", fun v -> v > 0.0 && v < 1.0)
        "slo-target"
        "Good-fraction target the burn rate is measured against (burn_x1000 \
         = 1000 means exactly exhausting the error budget)"
        Arg.(opt float f.fc_slo_target)
        (fun s fc_slo_target ->
          { s with fleet = { s.fleet with fc_slo_target } });
      knob ~docv:"F" ~range:fraction "hedge-frac"
        "Fleet: hedge still-outstanding requests onto a second machine after \
         $(docv) of --deadline-us; first response wins. 0 disables"
        Arg.(opt float f.fc_hedge_frac)
        (fun s fc_hedge_frac ->
          { s with fleet = { s.fleet with fc_hedge_frac } });
      knob ~docv:"F" ~range:fraction "hedge-budget"
        "Fleet: global hedge budget as a fraction of arrivals"
        Arg.(opt float f.fc_hedge_budget)
        (fun s fc_hedge_budget ->
          { s with fleet = { s.fleet with fc_hedge_budget } });
      knob "admit"
        "Fleet: SLO-aware admission control - shed arrivals whose predicted \
         wait (gossiped depth x EWMA sojourn) already exceeds --deadline-us \
         (sheds count against the SLO)"
        Arg.flag
        (fun s fc_admit -> { s with fleet = { s.fleet with fc_admit } });
      knob ~docv:"US" ~range:non_negative "deadline-us"
        "Fleet: per-request deadline driving --hedge-frac and --admit"
        Arg.(opt float f.fc_deadline_us)
        (fun s fc_deadline_us ->
          { s with fleet = { s.fleet with fc_deadline_us } });
      knob "wjsq-aware"
        "Fleet: weight wjsq by each machine's observed completion rate (a \
         leaky per-window integrator) instead of nominal capacity - the \
         brownout-aware balancer"
        Arg.flag
        (fun s fc_bw_wjsq -> { s with fleet = { s.fleet with fc_bw_wjsq } });
      knob "nic"
        "Fleet: deliver front->machine traffic through each machine's \
         simulated NIC (RX descriptor ring + driver) and responses through \
         its TX ring; adds nic_* columns"
        Arg.flag
        (fun s fc_nic -> { s with fleet = { s.fleet with fc_nic } });
      knob ~docv:"US" ~range:non_negative "itr"
        "NIC interrupt-moderation gap in microseconds (minimum spacing \
         between RX interrupts); 0 = unmoderated. Inert without --nic"
        Arg.(opt float f.fc_itr_us)
        (fun s fc_itr_us -> { s with fleet = { s.fleet with fc_itr_us } });
      choice ~docv:"M" "rx-mode"
        "NIC receive mode: irq, poll or hybrid (NAPI-style switching). Inert \
         without --nic"
        Iw_kernel.Nic_driver.mode_of_string Iw_kernel.Nic_driver.mode_name
        f.fc_nic_mode (fun s fc_nic_mode ->
          { s with fleet = { s.fleet with fc_nic_mode } });
      (* Telemetry, faults and output. *)
      knob ~docv:"US" ~range:non_negative "sample-us"
        "Sample a windowed fleet timeline every $(docv) of virtual time at \
         the conservative-window barrier (identical for serial and parallel \
         fleets); 0 disables"
        Arg.(opt float 0.0)
        (fun s sample_us -> { s with sample_us });
      knob ~docv:"PATH" "series-csv"
        "Write the sampled fleet timeline as CSV (needs --sample-us and a \
         single --rps)"
        Arg.(opt (some string) None)
        (fun s series_csv -> { s with series_csv });
      knob ~docv:"RATE" ~range:fraction "faults"
        "Arm a service-level fault plan at $(docv): worker hangs, response \
         corruption, machine brownouts and link drops (override the kinds \
         with --fault-kinds); 0 disables"
        Arg.(opt float 0.0)
        (fun s faults -> { s with faults });
      knob ~docv:"K,K" "fault-kinds" "Comma-separated fault kinds for --faults"
        Arg.(opt (some string) None)
        (fun s kinds ->
          { s with fault_kinds = Option.map parse_fault_kinds kinds });
      knob ~docv:"PATH" "csv" "Also write the rows as CSV"
        Arg.(opt (some string) None)
        (fun s csv -> { s with csv });
      knob ~docv:"W" "alloc-budget"
        "Print the run-phase allocation profile and fail if any row exceeds \
         $(docv) minor-heap words per completed request"
        Arg.(opt (some float) None)
        (fun s alloc_budget -> { s with alloc_budget });
      Knob (jobs_arg, fun s jobs -> { s with jobs });
      Knob (seed_arg, fun s global_seed -> { s with global_seed });
    ]
  in
  (* Every knob's setter runs, with its default when the flag is
     absent, so the fold overwrites each command-owned field below. *)
  let unset =
    {
      plane = d;
      fleet = f;
      rpss = [];
      duration_ms = 0.0;
      bursty = false;
      closed = 0;
      think_us = 0.0;
      machines = 0;
      hetero = None;
      fleet_serial = false;
      sample_us = 0.0;
      faults = 0.0;
      fault_kinds = None;
      csv = None;
      series_csv = None;
      alloc_budget = None;
      jobs = 1;
      global_seed = 0;
    }
  in
  let settings =
    List.fold_left
      (fun acc (Knob (arg, set)) -> Term.(const set $ acc $ arg))
      (Term.const unset) knobs
  in
  let run s =
    Iw_engine.Rng.set_global_seed s.global_seed;
    (* The plane and the fleet both sample off the ambient period. *)
    Iw_obs.Series.set_period_us s.sample_us;
    let p = s.plane in
    (* Runs [f] (the plane or fleet runs) under the fault plan, and
       reports a config they reject like a bad flag.  An explicit
       --fault-kinds arms the plan even at rate 0: kinds with
       recovery machinery that exists only when armed (the NIC's
       lost-IRQ slack scan) can then be exercised — and shown inert —
       without any injection. *)
    let with_plan f =
      let f () = or_die "serve" f in
      if s.faults > 0.0 || s.fault_kinds <> None then
        Iw_faults.Plan.with_ambient
          (Iw_faults.Plan.create ~rate:s.faults ~seed:p.seed
             ~kinds:
               (Option.value s.fault_kinds
                  ~default:
                    Iw_faults.Plan.
                      [ Worker_hang; Req_corrupt; Machine_brownout; Link_drop ])
             ())
          f
      else f ()
    in
    let duration_us = s.duration_ms *. 1000.0 in
    let workload_of rps =
      if s.closed > 0 then
        Workload.Closed
          { clients = s.closed; think_us = s.think_us; duration_us }
      else if s.bursty then
        Workload.Bursty
          {
            rps_on = rps *. 1.8;
            rps_off = rps *. 0.2;
            mean_on_us = 5_000.0;
            mean_off_us = 5_000.0;
            duration_us;
          }
      else Workload.Poisson { rps; duration_us }
    in
    (* A closed loop has no offered rate to sweep: one row. *)
    let rpss = if s.closed > 0 then [ List.hd s.rpss ] else s.rpss in
    (* One row per report: an aligned table on stdout, and the same
       rows as CSV with --csv.  Shared by the fleet and the plane. *)
    let print_rows header cols reports =
      let rows = header :: List.map cols reports in
      let widths =
        List.fold_left
          (fun acc row -> List.map2 (fun w c -> max w (String.length c)) acc row)
          (List.map (fun _ -> 0) header)
          rows
      in
      List.iter
        (fun row ->
          List.iteri
            (fun i c ->
              Printf.printf "%s%*s" (if i = 0 then "" else "  ")
                (List.nth widths i) c)
            row;
          print_newline ())
        rows;
      match s.csv with
      | None -> ()
      | Some path ->
          write_csv path rows;
          Printf.printf "wrote %s: %d rows\n" path (List.length reports)
    in
    (* --series-csv: the one run's sampled timeline. *)
    let write_series series =
      match (s.series_csv, series) with
      | None, _ -> ()
      | Some path, [ Some ser ] ->
          Iw_obs.Series.write_csv ser path;
          Printf.printf "wrote %s: %d samples (%d dropped)\n" path
            (Iw_obs.Series.length ser)
            (Iw_obs.Series.dropped ser)
      | Some _, [ None ] -> die "serve: --series-csv needs --sample-us > 0"
      | Some _, _ -> die "serve: --series-csv needs a single --rps"
    in
    let fleet_specs =
      match s.hetero with
      | Some specs -> Some specs
      | None when s.machines > 0 ->
          Some (List.init s.machines (fun _ -> Fleet.knl_spec ~workers:p.workers ()))
      | None -> None
    in
    match fleet_specs with
    | Some specs ->
        if s.closed > 0 then
          die "serve: --closed is a single-machine mode (fleets are open-loop)";
        if s.alloc_budget <> None then
          die "serve: --alloc-budget applies to the single-machine plane only";
        let fc = s.fleet in
        let fm = Array.of_list specs in
        (* Fleet runs own their parallelism (machine blocks on up to
           one domain per core), so the rate sweep itself stays
           sequential. *)
        let reports =
          with_plan (fun () ->
              List.map
                (fun rps ->
                  Fleet.run
                    ?parallel:(if s.fleet_serial then Some false else None)
                    {
                      fc with
                      fc_machines = fm;
                      fc_workload = workload_of rps;
                      fc_policy = p.policy;
                      fc_order = p.order;
                      fc_queue_cap = p.queue_cap;
                      fc_backend = p.backend;
                      fc_work_us = p.work_us;
                      fc_hi_frac = p.hi_frac;
                      fc_demand = p.demand;
                      fc_seed = p.seed;
                    })
                rpss)
        in
        (* SLO columns appear only when accounting is on, so default
           runs (and the fleet smoke's par-vs-serial cmp) keep their
           existing shape. *)
        let slo = fc.fc_slo_us > 0.0 in
        let faulted = s.faults > 0.0 in
        let hedged = fc.fc_hedge_frac > 0.0 in
        let header =
          [
            "machines"; "policy"; "gossip_us"; "offered_rps"; "arrivals";
            "completed"; "failed"; "retries"; "nacks"; "drops"; "ejects";
            "thru_rps"; "util"; "p50_us"; "p99_us"; "p99.9_us";
          ]
          @ (if slo then [ "slo_good"; "slo_total"; "burn_x1000" ] else [])
          @ (if faulted then [ "steals"; "reexecs"; "brownouts" ] else [])
          @ (if hedged then [ "hedges"; "hedge_wins"; "hedge_late" ] else [])
          @ (if fc.fc_admit then [ "adm_shed" ] else [])
          @
          if fc.fc_nic then
            [
              "nic_rx"; "nic_drops"; "nic_irqs"; "nic_polls"; "nic_wasted_kc";
              "nic_switches"; "nic_recovers";
            ]
          else []
        in
        let cols (r : Fleet.report) =
          let p pct = Fleet.percentile_us r r.fr_total pct in
          let ints = List.map string_of_int in
          [
            string_of_int r.fr_machines;
            r.fr_policy;
            Printf.sprintf "%g" fc.fc_gossip_us;
            Printf.sprintf "%.0f" r.fr_offered_rps;
          ]
          @ ints
              [
                r.fr_arrivals; r.fr_completed; r.fr_failed; r.fr_retries;
                r.fr_nacks; r.fr_net_drops; r.fr_ejects;
              ]
          @ [
              Printf.sprintf "%.0f" r.fr_throughput_rps;
              Printf.sprintf "%.2f" r.fr_utilization;
              Printf.sprintf "%.1f" (p 50.0);
              Printf.sprintf "%.1f" (p 99.0);
              Printf.sprintf "%.1f" (p 99.9);
            ]
          @ (if slo then
               ints
                 [
                   r.fr_slo_good;
                   r.fr_slo_total;
                   Fleet.burn_x1000 ~target:fc.fc_slo_target
                     ~good:r.fr_slo_good ~total:r.fr_slo_total;
                 ]
             else [])
          @ (if faulted then
               ints [ r.fr_steals; r.fr_corrupt_retries; r.fr_brownouts ]
             else [])
          @ (if hedged then
               ints [ r.fr_hedges; r.fr_hedge_wins; r.fr_hedge_cancels ]
             else [])
          @ (if fc.fc_admit then ints [ r.fr_admission_shed ] else [])
          @
          if fc.fc_nic then
            ints
              [
                r.fr_nic_rx; r.fr_nic_drops; r.fr_nic_irqs; r.fr_nic_polls;
                r.fr_nic_wasted_cycles / 1000; r.fr_nic_switches;
                r.fr_nic_recovers;
              ]
          else []
        in
        print_rows header cols reports;
        (match reports with
        | [ r ] when s.csv = None ->
            (* A single fleet row gets the per-machine breakdown. *)
            print_newline ();
            print_string
              (Interweave.Table.render
                 (Interweave.Machine.Fleet.counter_table
                    (Array.to_list
                       (Array.map2 (fun n c -> (n, c)) r.fr_m_names
                          r.fr_m_counters))))
        | _ -> ());
        write_series (List.map (fun r -> r.Fleet.fr_series) reports)
    | None ->
    if s.fleet.fc_nic then
      die "serve: --nic needs a fleet (--machines or --hetero)";
    (* The ambient fault plan is domain-local, so a faulted sweep runs
       its rows on the coordinator. *)
    let jobs = if s.faults > 0.0 then 1 else s.jobs in
    let reports =
      with_plan (fun () ->
          Interweave.Driver.parallel_map ~jobs
            (fun rps -> Plane.run { p with workload = workload_of rps })
            rpss)
    in
    let cols (r : Plane.report) =
      let p pct = Plane.percentile_us r r.rep_total pct in
      [
        r.rep_os;
        r.rep_policy;
        r.rep_backend;
        Printf.sprintf "%.0f" r.rep_offered_rps;
        string_of_int r.rep_arrivals;
        string_of_int r.rep_shed;
        Printf.sprintf "%.0f" r.rep_throughput_rps;
        Printf.sprintf "%.2f" r.rep_utilization;
        Printf.sprintf "%.1f" (Plane.mean_us r r.rep_queue);
        Printf.sprintf "%.1f" (p 50.0);
        Printf.sprintf "%.1f" (p 90.0);
        Printf.sprintf "%.1f" (p 99.0);
        Printf.sprintf "%.1f" (p 99.9);
        (* coordinated-omission-corrected p99: measured from each
           request's intended (drawn) send time; equals raw p99 when
           the generator never falls behind *)
        Printf.sprintf "%.1f" (Plane.percentile_us r r.rep_total_corrected 99.0);
      ]
      @ if s.faults > 0.0 then [ string_of_int r.rep_steals ] else []
    in
    let header =
      [
        "os"; "policy"; "backend"; "offered_rps"; "arrivals"; "shed";
        "thru_rps"; "util"; "q_mean_us"; "p50_us"; "p90_us"; "p99_us";
        "p99.9_us"; "p99c_us";
      ]
      @ if s.faults > 0.0 then [ "steals" ] else []
    in
    print_rows header cols reports;
    write_series (List.map (fun r -> r.Plane.rep_series) reports);
    match s.alloc_budget with
    | None -> ()
    | Some budget ->
        (* The allocation-budget gate (test/smokes.t): steady-state
           request processing must stay inside the committed
           minor-words-per-request budget (warmup — arena growth,
           stream setup — is amortized over the run, hence a budget
           slightly above the asymptotic 0). *)
        let worst =
          List.fold_left
            (fun acc (r : Plane.report) ->
              let per_req =
                if r.rep_completed > 0 then
                  r.rep_run_minor_words /. float_of_int r.rep_completed
                else r.rep_run_minor_words
              in
              Printf.printf
                "alloc: %s/%s %.0f rps: %.0f minor words / %d requests = \
                 %.4f w/req (major %.0f, arena cap %d)\n"
                r.rep_backend r.rep_policy r.rep_offered_rps
                r.rep_run_minor_words r.rep_completed per_req
                r.rep_run_major_words r.rep_arena_capacity;
              Float.max acc per_req)
            0.0 reports
        in
        if worst > budget then
          die "serve: allocation budget exceeded: %.4f > %.4f minor words/request"
            worst budget;
        Printf.printf "alloc budget ok: worst %.4f <= %.4f minor words/request\n"
          worst budget
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive open- or closed-loop load through the service plane (queues, \
          dispatch policies, fiber/virtine execution) and report throughput \
          and tail latency per offered rate")
    Term.(const run $ settings)

let () =
  let doc =
    "Reproduction of 'The Case for an Interwoven Parallel Hardware/Software \
     Stack' (SCWS/ROSS 2021)"
  in
  let info = Cmd.info "interweave" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            csv_cmd;
            stacks_cmd;
            trace_cmd;
            profile_cmd;
            golden_cmd;
            sweep_cmd;
            faults_cmd;
            serve_cmd;
          ]))
