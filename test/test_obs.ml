(* Tests for the observability layer: typed counters, the trace bus,
   the Chrome exporter, the ambient context, and the sweepable cost
   model.  The pinned-scenario expectations below were captured from
   the string-keyed counters before the typed refactor, so they verify
   the two implementations agree event for event. *)

open Iw_obs

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counter_index_bijection () =
  check_int "count matches list" Counter.count (List.length Counter.all);
  let seen = Hashtbl.create 32 in
  List.iter
    (fun id ->
      let i = Counter.index id in
      Alcotest.(check bool) "index in range" true (i >= 0 && i < Counter.count);
      Alcotest.(check bool) "index unique" false (Hashtbl.mem seen i);
      Hashtbl.replace seen i ())
    Counter.all

let test_counter_names_unique () =
  let names = List.map Counter.name Counter.all in
  check_int "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_counter_basic_ops () =
  let s = Counter.create () in
  List.iter (fun id -> check_int "fresh is zero" 0 (Counter.get s id)) Counter.all;
  Counter.incr s Counter.Ticks;
  Counter.incr s Counter.Ticks;
  Counter.add s Counter.Spawns 7;
  check_int "incr twice" 2 (Counter.get s Counter.Ticks);
  check_int "add" 7 (Counter.get s Counter.Spawns);
  Counter.reset s;
  check_int "reset" 0 (Counter.get s Counter.Ticks)

let test_counter_to_list_rendering () =
  (* Same contract as the old string-keyed counters: only nonzero
     entries, sorted by name. *)
  let s = Counter.create () in
  Counter.add s Counter.Ticks 3;
  Counter.add s Counter.Context_switches 9;
  Counter.incr s Counter.Ipi_sends;
  Alcotest.(check (list (pair string int)))
    "nonzero sorted by name"
    [ ("context_switches", 9); ("ipi_sends", 1); ("ticks", 3) ]
    (Counter.to_list s)

(* ------------------------------------------------------------------ *)
(* Trace ring *)

let test_trace_null_disabled () =
  let tr = Trace.null () in
  Alcotest.(check bool) "null disabled" false tr.Trace.enabled;
  Trace.instant tr ~name:"x" ~cpu:0 ~ts:1 ();
  check_int "null records nothing" 0 (Trace.length tr)

let test_trace_ring_bounded () =
  let tr = Trace.ring ~capacity:4 () in
  for i = 1 to 10 do
    Trace.instant tr ~name:(string_of_int i) ~cpu:0 ~ts:i ()
  done;
  check_int "length capped" 4 (Trace.length tr);
  check_int "emitted counts all" 10 (Trace.emitted tr);
  check_int "dropped is overflow" 6 (Trace.dropped tr);
  Alcotest.(check (list string))
    "oldest-first survivors" [ "7"; "8"; "9"; "10" ]
    (List.map (fun e -> e.Trace.ev_name) (Trace.events tr))

(* ------------------------------------------------------------------ *)
(* Pinned scenario: typed counters vs the pre-refactor string counters *)

let pinned_kernel () =
  let plat = Iw_hw.Platform.small in
  let k =
    Iw_kernel.Sched.boot ~seed:11 ~quantum_us:100.0
      ~personality:(Iw_kernel.Os.nautilus plat) plat
  in
  let m = Iw_kernel.Sched.mutex () in
  for i = 0 to 3 do
    ignore
      (Iw_kernel.Sched.spawn k
         ~spec:{ Iw_kernel.Sched.default_spec with sp_cpu = Some (i mod 2) }
         (fun () ->
           for _ = 1 to 5 do
             Iw_kernel.Api.work 50_000;
             Iw_kernel.Api.with_lock m (fun () -> Iw_kernel.Api.work 5_000)
           done))
  done;
  Iw_kernel.Sched.run k;
  k

let test_typed_counters_match_pinned_baseline () =
  let k = pinned_kernel () in
  check_int "elapsed" 639_716 (Iw_kernel.Sched.now k);
  check_int "work cycles" 1_100_000 (Iw_kernel.Sched.total_work_cycles k);
  check_int "overhead cycles" 52_942 (Iw_kernel.Sched.total_overhead_cycles k);
  let legacy =
    [ "context_switches"; "lock_contended"; "preemptions"; "spawns";
      "thread_exits"; "ticks" ]
  in
  let rendered = Counter.to_list (Iw_kernel.Sched.counters k) in
  Alcotest.(check (list (pair string int)))
    "legacy keys match string-keyed baseline"
    [
      ("context_switches", 25);
      ("lock_contended", 16);
      ("preemptions", 5);
      ("spawns", 4);
      ("thread_exits", 4);
      ("ticks", 25);
    ]
    (List.filter (fun (n, _) -> List.mem n legacy) rendered);
  (* The refactor added hardware-layer probes the string counters never
     had: each scheduler tick is one timer fire delivered as one irq. *)
  check_int "timer fires" 25
    (Counter.get (Iw_kernel.Sched.counters k) Counter.Timer_fires);
  check_int "irq dispatches" 25
    (Counter.get (Iw_kernel.Sched.counters k) Counter.Irq_dispatches)

(* ------------------------------------------------------------------ *)
(* Tracing must not perturb simulated time or tables *)

let test_trace_on_off_identical_tables () =
  let e = Interweave.Experiments.find "E3" in
  let off = Interweave.Experiments.run_to_string e in
  let tr = Trace.ring () in
  let obs = Obs.create ~trace:tr () in
  let on =
    Obs.with_ambient obs (fun () -> Interweave.Experiments.run_to_string e)
  in
  check_str "byte-identical output" off on;
  Alcotest.(check bool) "trace captured events" true (Trace.length tr > 0)

(* ------------------------------------------------------------------ *)
(* Chrome export *)

let traced_pinned_run () =
  let tr = Trace.ring () in
  let obs = Obs.create ~trace:tr () in
  Obs.with_ambient obs (fun () -> ignore (pinned_kernel ()));
  tr

let test_chrome_json_validates () =
  let tr = traced_pinned_run () in
  Alcotest.(check bool) "events recorded" true (Trace.length tr > 0);
  let path = Filename.temp_file "iw_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chrome.write_file tr path;
      match Chrome.validate_file path with
      | Ok n ->
          Alcotest.(check bool)
            "validated every recorded event" true
            (n >= Trace.length tr)
      | Error msg -> Alcotest.fail ("trace failed validation: " ^ msg))

let test_chrome_rejects_garbage () =
  (match Chrome.validate "not json at all" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match Chrome.validate "{\"traceEvents\": 42}" with
  | Ok _ -> Alcotest.fail "non-array traceEvents accepted"
  | Error _ -> ()

let test_chrome_flow_round_trip () =
  (* A two-hop request: start on the front tier (cpu -1 -> pid 0),
     step on a machine worker (cpu 3 -> pid 4), finish back on the
     front tier.  The export must validate and count it as crossing
     processes. *)
  let tr = Trace.ring ~capacity:64 () in
  Trace.set_flows tr true;
  Trace.span tr ~name:"exec" ~cpu:3 ~ts:10 ~dur:30 ();
  Trace.flow tr ~name:"req" ~phase:Trace.flow_start ~id:7 ~cpu:(-1) ~ts:5 ();
  Trace.flow tr ~name:"req" ~phase:Trace.flow_step ~id:7 ~cpu:3 ~ts:20 ();
  Trace.flow tr ~name:"req" ~phase:Trace.flow_finish ~id:7 ~cpu:(-1) ~ts:50 ();
  (* A flow that never leaves pid 0 must not count as cross-process. *)
  Trace.flow tr ~name:"req" ~phase:Trace.flow_start ~id:8 ~cpu:(-1) ~ts:6 ();
  Trace.flow tr ~name:"req" ~phase:Trace.flow_finish ~id:8 ~cpu:(-1) ~ts:9 ();
  let json = Chrome.to_json tr in
  (match Chrome.validate json with
  | Ok n -> check_int "all events validated" 6 n
  | Error msg -> Alcotest.fail ("flow trace failed validation: " ^ msg));
  match Chrome.cross_process_flows json with
  | Ok n -> check_int "one flow crosses processes" 1 n
  | Error msg -> Alcotest.fail ("cross_process_flows: " ^ msg)

let test_chrome_flow_gating_and_bad_sequences () =
  (* Flows are double-gated: without the opt-in nothing records. *)
  let tr = Trace.ring ~capacity:8 () in
  Trace.flow tr ~name:"req" ~phase:Trace.flow_start ~id:1 ~cpu:0 ~ts:1 ();
  check_int "flows off records nothing" 0 (Trace.length tr);
  Trace.set_flows tr true;
  (match Trace.flow tr ~name:"req" ~phase:9 ~id:1 ~cpu:0 ~ts:1 () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "bad phase accepted");
  (* Validator: a step or finish with no start, and a duplicate
     start, are both malformed. *)
  let ev ph id ts =
    Printf.sprintf
      "{\"name\":\"req\",\"cat\":\"flow\",\"ph\":\"%s\",\"id\":%d,\"pid\":0,\
       \"tid\":0,\"ts\":%d}"
      ph id ts
  in
  let doc evs =
    "{\"traceEvents\":[" ^ String.concat "," evs ^ "]}"
  in
  (match Chrome.validate (doc [ ev "t" 3 1 ]) with
  | Ok _ -> Alcotest.fail "step without start accepted"
  | Error _ -> ());
  (match Chrome.validate (doc [ ev "s" 3 1; ev "s" 3 2 ]) with
  | Ok _ -> Alcotest.fail "duplicate start accepted"
  | Error _ -> ());
  match Chrome.validate (doc [ ev "s" 3 1; ev "t" 3 2; ev "f" 3 3 ]) with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "expected 3 events, validated %d" n
  | Error msg -> Alcotest.fail ("well-formed flow rejected: " ^ msg)

let test_chrome_counter_round_trip () =
  (* A sampled series rides along as ph:"C" counter lanes. *)
  let hits = ref 0 in
  let s =
    Series.create ~capacity:8 ~name:"svc"
      ~cols:
        [
          Series.dcol ~name:"hits" (fun () -> !hits);
          Series.col ~name:"gauge" (fun () -> 42);
        ]
      ()
  in
  hits := 5;
  Series.sample s ~ts:100;
  hits := 9;
  Series.sample s ~ts:200;
  let tr = Trace.ring ~capacity:8 () in
  Trace.instant tr ~name:"mark" ~cpu:0 ~ts:150 ();
  let json = Chrome.to_json ~series:[ s ] tr in
  (match Chrome.validate json with
  | Ok n -> check_int "instant + 2 samples x 2 cols" 5 n
  | Error msg -> Alcotest.fail ("counter trace failed validation: " ^ msg));
  (* Counter events must carry args.v and stay monotone per name. *)
  let c name ts v =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"series\",\"ph\":\"C\",\"pid\":0,\"ts\":%d,\
       \"args\":{\"v\":%d}}"
      name ts v
  in
  let doc evs = "{\"traceEvents\":[" ^ String.concat "," evs ^ "]}" in
  (match Chrome.validate (doc [ c "a" 10 1; c "a" 5 2 ]) with
  | Ok _ -> Alcotest.fail "non-monotone counter accepted"
  | Error _ -> ());
  (match
     Chrome.validate
       (doc
          [ "{\"name\":\"a\",\"cat\":\"series\",\"ph\":\"C\",\"pid\":0,\"ts\":1}" ])
   with
  | Ok _ -> Alcotest.fail "counter without args accepted"
  | Error _ -> ());
  match Chrome.validate (doc [ c "a" 10 1; c "b" 5 2; c "a" 20 3 ]) with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "expected 3 counter events, validated %d" n
  | Error msg -> Alcotest.fail ("well-formed counters rejected: " ^ msg)

let test_series_ring_and_csv () =
  let v = ref 0 in
  let posts = ref 0 in
  let s =
    Series.create ~capacity:3 ~name:"ring"
      ~cols:
        [ Series.dcol ~name:"d" (fun () -> !v); Series.col ~name:"raw" (fun () -> !v) ]
      ~post:[ (fun () -> incr posts) ]
      ()
  in
  for i = 1 to 5 do
    v := i * 10;
    Series.sample s ~ts:(i * 100)
  done;
  check_int "ring keeps newest" 3 (Series.length s);
  check_int "dropped counts overflow" 2 (Series.dropped s);
  check_int "post hook per sample" 5 !posts;
  check_int "oldest retained ts" 300 (Series.ts_at s 0);
  (* d is a delta column: 30-20=10 at ts 300; raw is the level. *)
  check_int "delta col" 10 (Series.get s 0 0);
  check_int "raw col" 30 (Series.get s 0 1);
  Alcotest.(check string)
    "csv shape"
    "ts_cycles,d,raw\n300,10,30\n400,10,40\n500,10,50\n"
    (Series.to_csv s)

(* ------------------------------------------------------------------ *)
(* Stats.percentile regression (Float.compare, single sort) *)

let test_percentile_negative_samples () =
  let t = Iw_engine.Stats.create () in
  List.iter (Iw_engine.Stats.add t) [ 3.0; 1.0; 2.0; -5.0; 10.0 ];
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Iw_engine.Stats.percentile t 50.0);
  Alcotest.(check (float 1e-9)) "p90" 10.0 (Iw_engine.Stats.percentile t 90.0);
  Alcotest.(check (float 1e-9)) "p0 is min" (-5.0)
    (Iw_engine.Stats.percentile t 0.0);
  Alcotest.(check (float 1e-9)) "p99 is max" 10.0
    (Iw_engine.Stats.percentile t 99.0)

(* ------------------------------------------------------------------ *)
(* Sweepable cost model *)

let test_sweep_registry_complete () =
  let module Sweep = Interweave.Machine.Sweep in
  Alcotest.(check bool)
    "covers the whole cost model" true
    (List.length Sweep.fields >= 30);
  check_int "names unique"
    (List.length Sweep.names)
    (List.length (List.sort_uniq compare Sweep.names));
  let plat = Iw_hw.Platform.small in
  match Sweep.find "tick_update" with
  | None -> Alcotest.fail "tick_update not registered"
  | Some fd ->
      check_int "preset value" 120 (fd.Sweep.get plat.Iw_hw.Platform.costs);
      let plat' = Sweep.with_value plat fd 999 in
      check_int "with_value roundtrip" 999
        (fd.Sweep.get plat'.Iw_hw.Platform.costs);
      check_int "original untouched" 120 (fd.Sweep.get plat.Iw_hw.Platform.costs)

let test_sweep_sensitivity_table () =
  let module Sweep = Interweave.Machine.Sweep in
  match Sweep.find "timer_path_softirq" with
  | None -> Alcotest.fail "timer_path_softirq not registered"
  | Some fd ->
      let tbl = Sweep.sensitivity fd [ 0; 1_200 ] in
      check_int "one row per value" 2 (List.length tbl.Interweave.Table.rows)

(* ------------------------------------------------------------------ *)
(* Machine context *)

let test_machine_boot_wiring () =
  let plat = Iw_hw.Platform.small in
  let obs = Obs.create ~trace:(Trace.ring ()) () in
  let k =
    Iw_kernel.Sched.boot ~obs ~personality:(Iw_kernel.Os.linux plat) plat
  in
  Alcotest.(check bool)
    "kernel shares the context" true (Iw_kernel.Sched.obs k == obs);
  ignore (Iw_kernel.Sched.spawn k (fun () -> Iw_kernel.Api.work 10_000));
  Iw_kernel.Sched.run k;
  Alcotest.(check bool)
    "counters fired" true
    (Counter.get obs.Obs.counters Counter.Context_switches > 0)

(* ------------------------------------------------------------------ *)
(* Profile: span-stack reconstruction *)

(* Spans arrive emit-order = completion order, so children precede
   their parents; the profiler must invert that into containment. *)
let sp ?(cat = "k") ?(cpu = 0) name ts dur : Trace.event =
  {
    Trace.ev_name = name;
    ev_cat = cat;
    ev_cpu = cpu;
    ev_ts = ts;
    ev_dur = dur;
    ev_flow = 0;
    ev_id = 0;
  }

let find_row (p : Profile.t) name =
  match
    List.find_opt (fun r -> r.Profile.r_frame.Profile.f_name = name) p.rows
  with
  | Some r -> r
  | None -> Alcotest.fail ("no profile row for " ^ name)

let test_profile_nested_spans () =
  let p =
    Profile.of_events [ sp "child" 10 5; sp "parent" 0 100 ]
  in
  check_int "total = root dur" 100 (Profile.total_cycles p);
  check_int "span count" 2 p.Profile.span_count;
  let parent = find_row p "parent" and child = find_row p "child" in
  check_int "parent total" 100 parent.Profile.r_total;
  check_int "parent self" 95 parent.Profile.r_self;
  check_int "child self" 5 child.Profile.r_self;
  Alcotest.(check (list (pair string int)))
    "folded paths"
    [ ("cpu 0;k:parent", 95); ("cpu 0;k:parent;k:child", 5) ]
    p.Profile.folded

let test_profile_sibling_spans () =
  let p =
    Profile.of_events
      [ sp "a" 0 10; sp "b" 20 30; sp "parent" 0 60; sp "root2" 100 40 ]
  in
  check_int "total = sum of roots" 100 (Profile.total_cycles p);
  check_int "parent self excludes both siblings" 20
    (find_row p "parent").Profile.r_self;
  check_int "second root untouched" 40 (find_row p "root2").Profile.r_self;
  let self_sum = List.fold_left (fun a r -> a + r.Profile.r_self) 0 p.rows in
  check_int "selfs sum to total" (Profile.total_cycles p) self_sum

let test_profile_identical_interval_tie () =
  (* Equal (ts, dur): the later emit is the parent (emitted at
     completion, outer frames complete last). *)
  let p = Profile.of_events [ sp "inner" 0 50; sp "outer" 0 50 ] in
  check_int "one root only" 50 (Profile.total_cycles p);
  check_int "outer self zero" 0 (find_row p "outer").Profile.r_self;
  check_int "inner gets the cycles" 50 (find_row p "inner").Profile.r_self;
  Alcotest.(check (list (pair string int)))
    "outer encloses inner"
    [ ("cpu 0;k:outer;k:inner", 50) ]
    p.Profile.folded

let test_profile_ring_wrapped () =
  (* A child overwritten by ring wrap must not break the accounting:
     the survivors still form a valid forest and selfs sum to total. *)
  let tr = Trace.ring ~capacity:2 () in
  Trace.span tr ~name:"lost" ~cat:"k" ~cpu:0 ~ts:0 ~dur:5 ();
  Trace.span tr ~name:"kept" ~cat:"k" ~cpu:0 ~ts:10 ~dur:20 ();
  Trace.span tr ~name:"parent" ~cat:"k" ~cpu:0 ~ts:0 ~dur:100 ();
  let p = Profile.of_trace tr in
  check_int "dropped surfaced" 1 p.Profile.dropped;
  check_int "total from surviving root" 100 (Profile.total_cycles p);
  check_int "parent self = total minus kept child" 80
    (find_row p "parent").Profile.r_self;
  let self_sum = List.fold_left (fun a r -> a + r.Profile.r_self) 0 p.rows in
  check_int "selfs still sum to total" 100 self_sum

(* ------------------------------------------------------------------ *)
(* Folded export *)

let profile_of_pinned_run () = Profile.of_trace (traced_pinned_run ())

let test_folded_deterministic_and_checked () =
  let p1 = profile_of_pinned_run () and p2 = profile_of_pinned_run () in
  let s1 = Folded.to_string p1 and s2 = Folded.to_string p2 in
  check_str "same run, same folded bytes" s1 s2;
  Alcotest.(check bool) "nonempty" true (String.length s1 > 0);
  (match Folded.check s1 ~total:(Profile.total_cycles p1) with
  | Ok n -> Alcotest.(check bool) "has stacks" true (n > 0)
  | Error msg -> Alcotest.fail ("folded check: " ^ msg));
  match Folded.check s1 ~total:(Profile.total_cycles p1 + 1) with
  | Ok _ -> Alcotest.fail "wrong total accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Golden counter gating *)

let test_golden_exact_pass () =
  let counters = [ ("spawns", 4); ("ticks", 100) ] in
  Alcotest.(check (list (pair string int)))
    "identical snapshots do not drift" []
    (List.map
       (fun d -> (d.Golden.d_counter, d.Golden.d_actual))
       (Golden.compare_counters ~expected:counters counters))

let test_golden_within_tolerance_pass () =
  (* ticks carries a 2% default tolerance: 102 vs 100 is allowed. *)
  let expected = [ ("spawns", 4); ("ticks", 100) ] in
  let actual = [ ("spawns", 4); ("ticks", 102) ] in
  check_int "scheduling noise tolerated" 0
    (List.length (Golden.compare_counters ~expected actual))

let test_golden_drift_fails () =
  let expected = [ ("spawns", 4); ("ticks", 100) ] in
  (* 103 vs 100 exceeds the 2% allowance of 2. *)
  (match Golden.compare_counters ~expected [ ("spawns", 4); ("ticks", 103) ] with
  | [ d ] ->
      check_str "names the counter" "ticks" d.Golden.d_counter;
      check_int "expected" 100 d.Golden.d_expected;
      check_int "actual" 103 d.Golden.d_actual;
      check_int "allowance" 2 d.Golden.d_allowed
  | ds -> Alcotest.failf "expected one drift, got %d" (List.length ds));
  (* spawns is exact: off by one fails. *)
  (match Golden.compare_counters ~expected [ ("spawns", 5); ("ticks", 100) ] with
  | [ d ] ->
      check_str "exact counter drifts" "spawns" d.Golden.d_counter;
      check_int "zero allowance" 0 d.Golden.d_allowed
  | ds -> Alcotest.failf "expected one drift, got %d" (List.length ds));
  (* union of keys: a newly-firing counter drifts against implicit 0. *)
  match Golden.compare_counters ~expected:[] [ ("steals", 7) ] with
  | [ d ] -> check_str "new counter gated" "steals" d.Golden.d_counter
  | ds -> Alcotest.failf "expected one drift, got %d" (List.length ds)

let test_golden_render_parse_round_trip () =
  let counters = [ ("spawns", 4); ("ticks", 100); ("steals", 0) ] in
  let text = Golden.render ~header:[ "E99"; "pinned" ] counters in
  Alcotest.(check (list (pair string int)))
    "sorted round trip"
    [ ("spawns", 4); ("steals", 0); ("ticks", 100) ]
    (Golden.parse text)

let test_golden_parse_hardened () =
  (* Hand-edited or re-encoded golden files arrive with tabs, trailing
     whitespace, CRLF endings, and stray blank lines; none of that may
     change what the gate compares. *)
  let text =
    "# comment\n\ntimer fires\t25\nticks   100   \n\r\nctx switches\t 9\t\n"
  in
  Alcotest.(check (list (pair string int)))
    "separator and whitespace noise ignored"
    [ ("timer fires", 25); ("ticks", 100); ("ctx switches", 9) ]
    (Golden.parse text);
  (match Golden.parse "lonely\n" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "value-less line accepted");
  match Golden.parse "name not_a_number\n" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-integer value accepted"

let test_golden_sections () =
  (* A pinned file: counters, then span tallies and rendered tables
     under "## " markers.  Only the counters above the first marker
     parse, even where the output section holds counter-shaped lines. *)
  let text =
    "# E99 (pinned)\nspawns 4\nticks 100\n## spans\nhw/irq 7\n\
     sched/switch:thread 2\n## output\n[E99] pinned\nticks 123\n"
  in
  Alcotest.(check string)
    "render_file lays the sections out" text
    (Golden.render_file ~header:[ "E99 (pinned)" ]
       ~counters:[ ("ticks", 100); ("spawns", 4) ]
       ~spans:[ ("sched/switch:thread", 2); ("hw/irq", 7) ]
       ~output:"[E99] pinned\nticks 123\n");
  Alcotest.(check (list (pair string int)))
    "counters only" [ ("spawns", 4); ("ticks", 100) ] (Golden.parse text);
  match Golden.parse "spawns 4\nlonely\n## spans\nhw/irq 7\n" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "malformed line above the first marker accepted"

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "index bijection" `Quick
            test_counter_index_bijection;
          Alcotest.test_case "names unique" `Quick test_counter_names_unique;
          Alcotest.test_case "basic ops" `Quick test_counter_basic_ops;
          Alcotest.test_case "to_list rendering" `Quick
            test_counter_to_list_rendering;
        ] );
      ( "trace",
        [
          Alcotest.test_case "null disabled" `Quick test_trace_null_disabled;
          Alcotest.test_case "ring bounded" `Quick test_trace_ring_bounded;
          Alcotest.test_case "on/off identical tables" `Quick
            test_trace_on_off_identical_tables;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "export validates" `Quick test_chrome_json_validates;
          Alcotest.test_case "rejects garbage" `Quick test_chrome_rejects_garbage;
          Alcotest.test_case "flow round trip" `Quick test_chrome_flow_round_trip;
          Alcotest.test_case "flow gating + bad sequences" `Quick
            test_chrome_flow_gating_and_bad_sequences;
          Alcotest.test_case "counter round trip" `Quick
            test_chrome_counter_round_trip;
        ] );
      ( "series",
        [
          Alcotest.test_case "ring + csv" `Quick test_series_ring_and_csv;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "typed counters match baseline" `Quick
            test_typed_counters_match_pinned_baseline;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile negatives" `Quick
            test_percentile_negative_samples;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "registry complete" `Quick
            test_sweep_registry_complete;
          Alcotest.test_case "sensitivity table" `Quick
            test_sweep_sensitivity_table;
        ] );
      ( "machine",
        [
          Alcotest.test_case "boot wiring" `Quick test_machine_boot_wiring;
        ] );
      ( "profile",
        [
          Alcotest.test_case "nested spans" `Quick test_profile_nested_spans;
          Alcotest.test_case "sibling spans" `Quick test_profile_sibling_spans;
          Alcotest.test_case "identical-interval tie" `Quick
            test_profile_identical_interval_tie;
          Alcotest.test_case "ring-wrapped spans" `Quick
            test_profile_ring_wrapped;
        ] );
      ( "exports",
        [
          Alcotest.test_case "folded deterministic + checked" `Quick
            test_folded_deterministic_and_checked;
        ] );
      ( "golden",
        [
          Alcotest.test_case "exact pass" `Quick test_golden_exact_pass;
          Alcotest.test_case "within tolerance" `Quick
            test_golden_within_tolerance_pass;
          Alcotest.test_case "drift fails" `Quick test_golden_drift_fails;
          Alcotest.test_case "render/parse round trip" `Quick
            test_golden_render_parse_round_trip;
          Alcotest.test_case "parse hardened" `Quick test_golden_parse_hardened;
          Alcotest.test_case "sectioned file" `Quick test_golden_sections;
        ] );
    ]
