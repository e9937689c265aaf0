(* Tests for virtines / Wasp. *)

open Iw_virtine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spawn config = Wasp.spawn_latency_us config

let test_stage_elision_snapshot () =
  let plain = Wasp.stages Wasp.default in
  let snap = Wasp.stages { Wasp.default with snapshot = true } in
  let elided name rows =
    List.exists (fun (s : Wasp.stage) -> s.stage_name = name && s.elided) rows
  in
  check_bool "boot paid without snapshot" true (not (elided "boot-path" plain));
  check_bool "boot elided with snapshot" true (elided "boot-path" snap);
  check_bool "restore paid with snapshot" true
    (not (elided "snapshot-restore" snap))

let test_ordering_of_configs () =
  let full = spawn { Wasp.default with profile = Wasp.Full_linux_boot; mem_mb = 128 } in
  let minimal = spawn Wasp.default in
  let snap = spawn { Wasp.default with snapshot = true } in
  let bespoke = spawn { Wasp.default with profile = Wasp.Bespoke_16 } in
  check_bool "full >> minimal" true (full > 20.0 *. minimal);
  check_bool "snapshot < minimal" true (snap < minimal);
  check_bool "bespoke cheapest boot" true (bespoke < minimal);
  check_bool "paper: as low as ~100us" true (bespoke < 150.0)

let test_backend_factor () =
  let kvm = spawn Wasp.default in
  let hv = spawn { Wasp.default with backend = Wasp.Hyper_v } in
  check_bool "hyper-v costlier" true (hv > kvm)

let test_memory_scales_mapping () =
  let small = spawn { Wasp.default with mem_mb = 2 } in
  let big = spawn { Wasp.default with mem_mb = 512 } in
  check_bool "mapping grows with memory" true (big > small +. 1000.0)

let test_pool_hits_and_fallback () =
  let t =
    Wasp.create ~pool_size:4
      { Wasp.default with profile = Wasp.Bespoke_16; pooled = true }
  in
  let lat_pooled = Wasp.call t ~work_us:10.0 in
  check_int "pool hit recorded" 1 (Wasp.pool_hits t);
  let cold =
    Wasp.call (Wasp.create { Wasp.default with profile = Wasp.Bespoke_16 })
      ~work_us:10.0
  in
  check_bool "pooled call cheaper than cold" true (lat_pooled < cold)

let test_call_includes_work () =
  let t = Wasp.create Wasp.default in
  let short = Wasp.call t ~work_us:10.0 in
  let long = Wasp.call t ~work_us:5_000.0 in
  check_bool "work dominates long calls" true (long -. short > 4_000.0)

let test_negative_work_rejected () =
  let t = Wasp.create Wasp.default in
  check_bool "raises" true
    (try
       ignore (Wasp.call t ~work_us:(-1.0));
       false
     with Invalid_argument _ -> true)

let test_clock_goes_forward () =
  let t = Wasp.create { Wasp.default with pooled = true } in
  ignore (Wasp.call_at t ~now_us:100.0 ~work_us:1.0);
  ignore (Wasp.call_at t ~now_us:100.0 ~work_us:1.0);
  let refused what now_us =
    Alcotest.check_raises what
      (Invalid_argument
         "Wasp.call_at: now_us must not be earlier than the last call's")
      (fun () -> ignore (Wasp.call_at t ~now_us ~work_us:1.0))
  in
  refused "now_us went back" 99.0;
  refused "now_us is nan" Float.nan

let test_call_program_runs_fib () =
  let t = Wasp.create { Wasp.default with profile = Wasp.Bespoke_16 } in
  let ret, latency = Wasp.call_program t ~ghz:1.3 (Iw_ir.Programs.fib_rec 12) in
  check_int "fib 12" 144 (Option.get ret);
  check_bool "latency includes spawn" true (latency > 100.0)

let test_call_program_isolated () =
  (* Two invocations share nothing: identical results, fresh heaps. *)
  let t = Wasp.create Wasp.default in
  let p = Iw_ir.Programs.alloc_churn 50 in
  let r1, _ = Wasp.call_program t ~ghz:1.0 p in
  let r2, _ = Wasp.call_program t ~ghz:1.0 p in
  check_int "same result" (Option.get r1) (Option.get r2)

let test_faas_table_shape () =
  let rows = Wasp.Faas.table () in
  check_int "five configurations" 5 (List.length rows);
  let mean name =
    (List.find (fun (r : Wasp.Faas.result) -> r.config_name = name) rows).mean_us
  in
  check_bool "full slowest" true
    (mean "full-linux-boot" > 10.0 *. mean "minimal-64");
  check_bool "pooled fastest" true
    (List.for_all
       (fun (r : Wasp.Faas.result) ->
         r.mean_us >= mean "bespoke-16+pool")
       rows);
  List.iter
    (fun (r : Wasp.Faas.result) ->
      check_bool (r.config_name ^ " p99 >= p50") true (r.p99_us >= r.p50_us))
    rows

let test_load_slow_context_queues () =
  let load config =
    Wasp.Faas.run_load ~name:"x" config ~rate_per_s:4_000.0 ~duration_s:0.2
      ~concurrency:4 ~work_us:150.0
  in
  let slow = load Wasp.default in
  let fast = load { Wasp.default with profile = Wasp.Bespoke_16; pooled = true } in
  check_bool "slow context waits more" true
    (slow.mean_wait_us > (10.0 *. fast.mean_wait_us) +. 10.0);
  check_bool "slow context higher utilization" true
    (slow.utilization > fast.utilization);
  check_bool "both served everything" true (slow.served = fast.served)

let test_load_overload_explodes () =
  (* Offered load beyond capacity: waits grow without bound. *)
  let r =
    Wasp.Faas.run_load ~name:"x"
      { Wasp.default with profile = Wasp.Full_linux_boot; mem_mb = 64 }
      ~rate_per_s:1_000.0 ~duration_s:0.05 ~concurrency:2 ~work_us:100.0
  in
  check_bool "saturated" true (r.utilization > 0.95);
  check_bool "waits explode" true (r.mean_wait_us > 10_000.0)

let test_deterministic () =
  let a = Wasp.Faas.run ~seed:9 ~name:"x" Wasp.default ~requests:50 ~work_us:10.0 in
  let b = Wasp.Faas.run ~seed:9 ~name:"x" Wasp.default ~requests:50 ~work_us:10.0 in
  Alcotest.(check (float 1e-9)) "same mean" a.mean_us b.mean_us

(* A run it cannot make is refused at entry, naming the field. *)
let test_faas_rejections_name_the_field () =
  Alcotest.check_raises "requests"
    (Invalid_argument "Wasp.Faas.run: requests must be >= 1") (fun () ->
      ignore (Wasp.Faas.run ~name:"x" Wasp.default ~requests:0 ~work_us:1.0));
  let load ?(rate = 100.0) ?(duration = 0.01) ?(concurrency = 1) () =
    ignore
      (Wasp.Faas.run_load ~name:"x" Wasp.default ~rate_per_s:rate
         ~duration_s:duration ~concurrency ~work_us:1.0)
  in
  let refuses what msg f =
    Alcotest.check_raises what
      (Invalid_argument ("Wasp.Faas.run_load: " ^ msg))
      f
  in
  refuses "zero rate" "rate_per_s must be > 0" (load ~rate:0.0);
  refuses "nan rate" "rate_per_s must be > 0" (load ~rate:Float.nan);
  refuses "negative duration" "duration_s must be > 0" (load ~duration:(-1.0));
  refuses "no contexts" "concurrency must be >= 1" (load ~concurrency:0)

let () =
  Alcotest.run "virtine"
    [
      ( "stages",
        [
          Alcotest.test_case "snapshot elision" `Quick
            test_stage_elision_snapshot;
          Alcotest.test_case "config ordering" `Quick test_ordering_of_configs;
          Alcotest.test_case "backend factor" `Quick test_backend_factor;
          Alcotest.test_case "memory scaling" `Quick test_memory_scales_mapping;
        ] );
      ( "calls",
        [
          Alcotest.test_case "pool hits" `Quick test_pool_hits_and_fallback;
          Alcotest.test_case "work included" `Quick test_call_includes_work;
          Alcotest.test_case "negative work" `Quick test_negative_work_rejected;
          Alcotest.test_case "clock goes forward" `Quick
            test_clock_goes_forward;
        ] );
      ( "fig5",
        [
          Alcotest.test_case "call_program fib" `Quick
            test_call_program_runs_fib;
          Alcotest.test_case "isolated invocations" `Quick
            test_call_program_isolated;
        ] );
      ( "faas",
        [
          Alcotest.test_case "table shape" `Quick test_faas_table_shape;
          Alcotest.test_case "load: slow contexts queue" `Quick
            test_load_slow_context_queues;
          Alcotest.test_case "load: overload explodes" `Quick
            test_load_overload_explodes;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "rejections name the field" `Quick
            test_faas_rejections_name_the_field;
        ] );
    ]
