(* Tests for the umbrella library: tables, stacks, experiment
   registry. *)

let check_bool = Alcotest.(check bool)
let _check_int = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let plat = Iw_hw.Platform.small

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t =
    Interweave.Table.make ~title:"t" ~headers:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let s = Interweave.Table.render t in
  check_bool "title" true (String.length s > 0);
  check_bool "contains cell" true (contains s "333")

let test_table_width_mismatch () =
  check_bool "raises" true
    (try
       ignore
         (Interweave.Table.make ~title:"t" ~headers:[ "a" ] [ [ "1"; "2" ] ]);
       false
     with Invalid_argument _ -> true)

let test_table_markdown () =
  let t =
    Interweave.Table.make ~title:"md" ~headers:[ "x" ] [ [ "y" ] ]
  in
  let s = Interweave.Table.to_markdown t in
  check_bool "has pipes" true (String.contains s '|');
  check_bool "has header rule" true (contains s "|---|")

(* ------------------------------------------------------------------ *)
(* Stack *)

let test_stack_presets () =
  let c = Interweave.Stack.commodity plat in
  let i = Interweave.Stack.interwoven plat in
  check_bool "different descriptions" true
    (Interweave.Stack.describe c <> Interweave.Stack.describe i);
  check_bool "interwoven events cheaper" true
    (Interweave.Stack.event_delivery_cycles i
    < Interweave.Stack.event_delivery_cycles c);
  check_bool "interwoven timing cheaper" true
    (Interweave.Stack.timer_mechanism_cost i
    < Interweave.Stack.timer_mechanism_cost c)

let test_stack_boot_runs () =
  List.iter
    (fun stack ->
      let k = Interweave.Stack.boot ~seed:2 stack in
      let ran = ref false in
      ignore
        (Iw_kernel.Sched.spawn k (fun () ->
             Iw_kernel.Api.work 10_000;
             ran := true));
      Iw_kernel.Sched.run k;
      check_bool (Interweave.Stack.describe stack) true !ran)
    [ Interweave.Stack.commodity plat; Interweave.Stack.interwoven plat ]

let test_stack_address_spaces () =
  let c = Interweave.Stack.commodity plat in
  let i = Interweave.Stack.interwoven plat in
  check_bool "commodity demand-paged" true
    (c.memory = Interweave.Stack.Demand_paging);
  check_bool "interwoven carat" true (i.memory = Interweave.Stack.Carat)

(* ------------------------------------------------------------------ *)
(* Experiments registry *)

let test_registry_complete () =
  let ids =
    List.map
      (fun (e : Interweave.Experiments.experiment) -> e.id)
      (Interweave.Experiments.all ())
  in
  List.iter
    (fun id -> check_bool (id ^ " present") true (List.mem id ids))
    [ "E1"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11"; "E12";
      "E13"; "E14"; "E15"; "E16"; "A1"; "A2"; "A3"; "A4"; "A5"; "R1"; "R2";
      "R3"; "R4" ]

let test_registry_find () =
  let e = Interweave.Experiments.find "e7" in
  check_bool "case-insensitive find" true (e.id = "E7");
  check_bool "missing raises" true
    (try
       ignore (Interweave.Experiments.find "E99");
       false
     with Not_found -> true)

(* Run the cheap experiments end-to-end; the expensive ones are
   exercised by the bench harness. *)
let test_cheap_experiments_run () =
  List.iter
    (fun id ->
      let e = Interweave.Experiments.find id in
      let tables = e.tables () in
      check_bool (id ^ " yields tables") true (List.length tables > 0);
      List.iter
        (fun t ->
          check_bool (id ^ " rows") true
            (List.length t.Interweave.Table.rows > 0))
        tables)
    [ "E3"; "E7"; "E8"; "E9"; "E11"; "E12"; "E13"; "E14"; "E15"; "E16"; "A2" ]

(* Minor words one whole run allocates, exactly: [run_with_counters]
   reads [Gc.minor_words].  E14's store buffer is a ring and A2 runs the
   interpreter's instruction loop; neither allocates per step.  With a
   list buffer and a closure per block they took 41.6M and 2.44M words.
   E7 and A1 run CARAT-guarded programs: a region lookup bisects a
   sorted array, the buddy heap keeps per-order free lists, and the
   interpreter's memory is an [Itbl], so guards, lookups, allocations
   and memory accesses allocate nothing but an allocation's answers.
   With a map lookup that built a closure and an option per miss,
   hash-set free lists scanned through a closure and a [Hashtbl] memory
   they took 8.70M and 13.00M words.  E15 builds one Zipf table per
   sweep in unboxed float loops; a boxed table per run took 1.94M.
   E1, A5 and R1 run the heartbeat, whose beat allocates only the
   workers' coroutine pauses: a ring deque of int tasks, one execution
   slot per worker, a prebuilt IPI delivery per target and an itimer's
   callbacks built once.  With a list deque, an execution record per
   task, a closure per IPI send and three per itimer expiry they took
   20.8M, 8.72M and 468k words. *)
let test_allocation_caps () =
  List.iter
    (fun (id, cap) ->
      let _, _, alloc =
        Interweave.Experiments.run_with_counters
          (Interweave.Experiments.find id)
      in
      let w = alloc.Interweave.Experiments.alloc_minor_words in
      check_bool
        (Printf.sprintf "%s: %.0f minor words <= %.0f" id w cap)
        true (w <= cap))
    [
      ("E14", 20_000.);
      ("A2", 300_000.);
      ("E7", 335_000.);
      ("A1", 640_000.);
      ("E15", 370_000.);
      ("E1", 7_000_000.);
      ("A5", 7_000_000.);
      ("R1", 410_000.);
      ("E4", 4_500_000.);
      ("E5", 7_000_000.);
    ]

(* ------------------------------------------------------------------ *)
(* Driver: determinism and parallel/serial equivalence *)

let cheap_ids = [ "E9"; "E12"; "E14"; "A2" ]

let test_driver_order () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in input order"
    (List.map (fun x -> x * x) xs)
    (Interweave.Driver.parallel_map ~jobs:4 (fun x -> x * x) xs)

let test_driver_exception () =
  check_bool "first failure re-raised" true
    (try
       ignore
         (Interweave.Driver.parallel_map ~jobs:3
            (fun x -> if x = 5 then failwith "boom" else x)
            (List.init 10 Fun.id));
       false
     with Failure _ -> true)

let test_experiments_deterministic () =
  List.iter
    (fun id ->
      let e = Interweave.Experiments.find id in
      Alcotest.(check string)
        (id ^ " reruns identically")
        (Interweave.Experiments.run_to_string e)
        (Interweave.Experiments.run_to_string e))
    cheap_ids

let test_parallel_matches_serial () =
  let es = List.map Interweave.Experiments.find cheap_ids in
  let serial = List.map Interweave.Experiments.run_to_string es in
  let par =
    Interweave.Driver.parallel_map ~jobs:4 Interweave.Experiments.run_to_string
      es
  in
  List.iter2
    (fun a b -> Alcotest.(check string) "parallel byte-identical to serial" a b)
    serial par

(* ------------------------------------------------------------------ *)
(* Fault injection: the no-op gate and the R experiments *)

module Plan = Iw_faults.Plan

(* The load-bearing invariant of the whole fault subsystem: with no
   plan installed — or even with an *enabled* plan at rate 0 — the
   existing experiments render byte-identically.  Injection sites must
   neither consume RNG draws nor perturb schedules when idle.  (E1 is
   the one deliberate exception: an enabled plan arms the TPAL
   watchdog, which legitimately fires under the jittery Linux signal
   driver even with zero injected faults; the *disabled* plan is the
   strict no-op everywhere, gated by the golden/ diffs.) *)
let test_faults_disabled_byte_identical () =
  List.iter
    (fun id ->
      let e = Interweave.Experiments.find id in
      let plain = Interweave.Experiments.run_to_string e in
      let under_rate0 =
        Plan.with_ambient
          (Plan.create ~rate:0.0 ~seed:42 ())
          (fun () -> Interweave.Experiments.run_to_string e)
      in
      Alcotest.(check string) (id ^ " unchanged under rate-0 plan") plain
        under_rate0)
    [ "E3"; "E7"; "E8"; "E9"; "E11"; "E12"; "E13"; "E14"; "E15"; "E16"; "A2" ]

let test_r_experiments_deterministic () =
  List.iter
    (fun id ->
      let e = Interweave.Experiments.find id in
      Alcotest.(check string)
        (id ^ " reruns identically")
        (Interweave.Experiments.run_to_string e)
        (Interweave.Experiments.run_to_string e))
    [ "R2"; "R4" ]

let test_r_parallel_matches_serial () =
  let es = List.map Interweave.Experiments.find [ "R2"; "R4" ] in
  let serial = List.map Interweave.Experiments.run_to_string es in
  let par =
    Interweave.Driver.parallel_map ~jobs:2 Interweave.Experiments.run_to_string
      es
  in
  List.iter2
    (fun a b -> Alcotest.(check string) "R parallel byte-identical" a b)
    serial par

(* The recovery acceptance check: under injected IPI loss the
   heartbeat experiment still completes all promotions and the
   recovery counters light up. *)
let test_r_recovery_observable () =
  let obs = Iw_obs.Obs.create ~collect:true () in
  let rendered =
    Iw_obs.Obs.with_ambient obs (fun () ->
        Interweave.Experiments.run_to_string (Interweave.Experiments.find "R2"))
  in
  check_bool "renders" true (String.length rendered > 0);
  let c = Iw_obs.Obs.total_counters obs in
  check_bool "faults injected" true
    (Iw_obs.Counter.get c Iw_obs.Counter.Fault_injected > 0);
  check_bool "relaunches recovered" true
    (Iw_obs.Counter.get c Iw_obs.Counter.Virtine_relaunch > 0)

let () =
  Alcotest.run "interweave"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "markdown" `Quick test_table_markdown;
        ] );
      ( "stack",
        [
          Alcotest.test_case "presets differ" `Quick test_stack_presets;
          Alcotest.test_case "boot runs" `Quick test_stack_boot_runs;
          Alcotest.test_case "address spaces" `Quick test_stack_address_spaces;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "cheap experiments run" `Slow
            test_cheap_experiments_run;
          Alcotest.test_case "allocation caps" `Quick test_allocation_caps;
        ] );
      ( "driver",
        [
          Alcotest.test_case "order preserved" `Quick test_driver_order;
          Alcotest.test_case "exception propagation" `Quick
            test_driver_exception;
          Alcotest.test_case "experiments deterministic" `Slow
            test_experiments_deterministic;
          Alcotest.test_case "parallel equals serial" `Slow
            test_parallel_matches_serial;
        ] );
      ( "faults",
        [
          Alcotest.test_case "disabled plan is byte-identical" `Slow
            test_faults_disabled_byte_identical;
          Alcotest.test_case "R deterministic" `Slow
            test_r_experiments_deterministic;
          Alcotest.test_case "R parallel equals serial" `Slow
            test_r_parallel_matches_serial;
          Alcotest.test_case "R recovery observable" `Slow
            test_r_recovery_observable;
        ] );
    ]
