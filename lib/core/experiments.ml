open Iw_engine
open Iw_hw
open Iw_kernel

type experiment = {
  id : string;
  title : string;
  paper_claim : string;
  tables : unit -> Table.t list;
}

let f2 = Table.cell_f
let pct = Table.cell_pct
let i2 = Table.cell_i

(* ================================================================== *)
(* E1/E2: heartbeat rate and overhead (Fig. 3, §IV-B text)             *)

let heartbeat_grid () =
  let open Iw_heartbeat in
  let plat = Platform.knl in
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun hb ->
          List.map
            (fun driver ->
              Tpal.run plat
                { workers = 16; heartbeat_us = hb; driver; seed = 11 }
                bench)
            [ Tpal.Nk_ipi; Tpal.Linux_signal ])
        [ 100.0; 20.0 ])
    Tpal.suite

let e1_tables () =
  let reports = heartbeat_grid () in
  let rate_rows =
    List.map
      (fun (r : Iw_heartbeat.Tpal.report) ->
        [
          r.bench;
          r.os;
          Printf.sprintf "%.0f" r.heartbeat_us;
          Printf.sprintf "%.0f" r.target_rate_hz;
          Printf.sprintf "%.0f" r.achieved_rate_hz;
          f2 r.rate_cv;
        ])
      reports
  in
  let ovh_rows =
    List.map
      (fun (r : Iw_heartbeat.Tpal.report) ->
        [
          r.bench;
          r.os;
          Printf.sprintf "%.0f" r.heartbeat_us;
          pct r.overhead_pct;
          i2 r.promotions;
          i2 r.steals;
          f2 r.speedup_vs_serial;
        ])
      reports
  in
  [
    Table.make ~title:"Fig.3: achieved vs target heartbeat rate (16 CPUs)"
      ~headers:[ "bench"; "os"; "hb(us)"; "target(Hz)"; "achieved(Hz)"; "cv" ]
      ~notes:
        [
          "paper: Nautilus hits the target steadily at 100us AND 20us;";
          "Linux undershoots and is unsteady, especially at 20us.";
        ]
      rate_rows;
    Table.make ~title:"SecIV-B: heartbeat scheduling overhead"
      ~headers:
        [ "bench"; "os"; "hb(us)"; "overhead"; "promotions"; "steals"; "speedup" ]
      ~notes:
        [ "paper: 13-22% overhead on Linux vs at most 4.9% on Nautilus." ]
      ovh_rows;
  ]

(* ================================================================== *)
(* E3: context switch costs (Fig. 4)                                   *)

(* A quiesced-system microbenchmark: two CPU-bound threads timeshare
   one core under a fine quantum; the per-switch cost is everything
   that is not their work, divided by the preemption count.  Tick
   noise is disabled — Fig. 4 measures the mechanism, not the
   weather. *)
let thread_switch_cost personality ~rt ~fp =
  let plat = Platform.with_cores Platform.knl 1 in
  let personality = { personality with Os.tick_noise = (fun _ -> 0) } in
  let k = Sched.boot ~seed:3 ~quantum_us:20.0 ~personality plat in
  let per_thread = 30_000_000 in
  for _ = 1 to 2 do
    ignore
      (Sched.spawn k
         ~spec:{ Sched.sp_name = "pingpong"; sp_cpu = Some 0; sp_fp = fp; sp_rt = rt }
         (fun () -> Api.work per_thread))
  done;
  Sched.run k;
  let switches =
    Iw_obs.Counter.get (Sched.counters k) Iw_obs.Counter.Preemptions
  in
  let overhead = Sched.total_overhead_cycles k in
  float_of_int overhead /. float_of_int (max 1 switches)

let fiber_switch_cost ~compiler_timed ~fp =
  let plat = Platform.with_cores Platform.knl 1 in
  let k = Sched.boot ~seed:3 ~personality:(Os.nautilus plat) plat in
  let result = ref (0.0, 0) in
  ignore
    (Sched.spawn k (fun () ->
         let mode =
           if compiler_timed then
             Fiber.Compiler_timed
               {
                 period = Platform.cycles_of_us plat 20.0;
                 check_interval = 2_000;
                 check_cost = plat.Platform.costs.timing_check;
               }
           else Fiber.Cooperative
         in
         let fs = Fiber.create plat ~mode ~fp in
         for _ = 1 to 2 do
           ignore
             (Fiber.spawn fs (fun () ->
                  if compiler_timed then Coro.consume 15_000_000
                  else
                    for _ = 1 to 250 do
                      Coro.consume 26_000;
                      Fiber.yield ()
                    done))
         done;
         Fiber.run fs;
         (* The switch cost proper: leave out the periodic check stream
            (a rate-dependent cost reported by E12/A2), keep the one
            check that triggers each switch. *)
         let check_cost =
           if compiler_timed then plat.Platform.costs.timing_check else 0
         in
         result :=
           (float_of_int (Fiber.switch_cost fs + check_cost), Fiber.switches fs)));
  Sched.run k;
  !result

let e3_tables () =
  let nk = Os.nautilus Platform.knl in
  let lx = Os.linux Platform.knl in
  let rows = ref [] in
  let add name cost = rows := [ name; Printf.sprintf "%.0f" cost ] :: !rows in
  let lx_fp = thread_switch_cost lx ~rt:false ~fp:true in
  add "linux threads (non-RT, FP)" lx_fp;
  add "linux threads (non-RT, no FP)" (thread_switch_cost lx ~rt:false ~fp:false);
  let nk_fp = thread_switch_cost nk ~rt:false ~fp:true in
  add "nk threads (non-RT, FP)" nk_fp;
  add "nk threads (RT, FP)" (thread_switch_cost nk ~rt:true ~fp:true);
  let nk_nofp = thread_switch_cost nk ~rt:false ~fp:false in
  add "nk threads (non-RT, no FP)" nk_nofp;
  add "nk threads (RT, no FP)" (thread_switch_cost nk ~rt:true ~fp:false);
  let coop_fp, _ = fiber_switch_cost ~compiler_timed:false ~fp:true in
  add "fibers cooperative (FP)" coop_fp;
  let coop, _ = fiber_switch_cost ~compiler_timed:false ~fp:false in
  add "fibers cooperative (no FP)" coop;
  let ct_fp, _ = fiber_switch_cost ~compiler_timed:true ~fp:true in
  add "fibers compiler-timed (FP)" ct_fp;
  let ct_nofp, _ = fiber_switch_cost ~compiler_timed:true ~fp:false in
  add "fibers compiler-timed (no FP)" ct_nofp;
  [
    Table.make ~title:"Fig.4: context switch cost on the KNL model (cycles)"
      ~headers:[ "configuration"; "cycles/switch" ]
      ~notes:
        [
          Printf.sprintf
            "paper: linux non-RT+FP ~5000; NK threads about half; measured %.0f and %.0f"
            lx_fp nk_fp;
          Printf.sprintf
            "paper: compiler-timed fibers 2.3x below NK threads w/ FP (measured %.1fx), 4x w/o FP (measured %.1fx)"
            (nk_fp /. ct_fp) (nk_nofp /. ct_nofp);
          Printf.sprintf
            "paper: granularity floor < 600 cycles (measured no-FP switch: %.0f)"
            ct_nofp;
        ]
      (List.rev !rows);
  ]

(* ================================================================== *)
(* E4/E5: kernel OpenMP vs Linux OpenMP (Fig. 6, §V-A)                 *)

let omp_relative plat scales benches =
  let open Iw_omp in
  List.concat_map
    (fun bench ->
      let rels =
        Nas.relative_performance plat
          ~modes:[ Runtime.Rtk; Runtime.Pik; Runtime.Cck ]
          ~scales bench
      in
      List.map
        (fun (mode, series) ->
          (bench.Nas.nas_name, Runtime.mode_name mode, series))
        rels)
    benches

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let e4_tables () =
  let scales = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let data = omp_relative Platform.knl scales [ Iw_omp.Nas.bt; Iw_omp.Nas.sp ] in
  let rows =
    List.map
      (fun (bench, mode, series) ->
        bench :: mode :: List.map (fun (_, rel) -> f2 rel) series)
      data
  in
  let rtk_rels =
    List.concat_map
      (fun (_, mode, series) ->
        if mode = "rtk" then List.map snd series else [])
      data
  in
  let full_suite =
    List.concat_map
      (fun bench ->
        let rels =
          Iw_omp.Nas.relative_performance Platform.knl
            ~modes:[ Iw_omp.Runtime.Rtk ] ~scales:[ 16; 64 ] bench
        in
        List.map
          (fun (_, series) ->
            bench.Iw_omp.Nas.nas_name
            :: List.map (fun (_, rel) -> f2 rel) series)
          rels)
      [ Iw_omp.Nas.bt; Iw_omp.Nas.sp; Iw_omp.Nas.cg; Iw_omp.Nas.ep ]
  in
  [
    Table.make
      ~title:"Fig.6: NAS BT/SP performance relative to Linux OpenMP (KNL)"
      ~headers:
        ("bench" :: "mode" :: List.map (fun n -> Printf.sprintf "%dcpu" n) scales)
      ~notes:
        [
          Printf.sprintf
            "paper: RTK geomean gain ~22%% across scales+benchmarks; measured %.1f%%"
            (100.0 *. (geomean rtk_rels -. 1.0));
          "paper: PIK performs similarly; CCK 'not easily summarized'.";
        ]
      rows;
    Table.make
      ~title:"SecV-A: the wider NAS surrogate suite, RTK vs Linux"
      ~headers:[ "bench"; "16cpu"; "64cpu" ]
      ~notes:
        [ "all implementations run the full NAS set; EP's small footprint";
          "leaves little for identity mapping to save." ]
      full_suite;
  ]

let e5_tables () =
  let scales = [ 24; 96; 192 ] in
  let data =
    omp_relative Platform.bigiron_8x24 scales [ Iw_omp.Nas.bt; Iw_omp.Nas.sp ]
  in
  let rows =
    List.map
      (fun (bench, mode, series) ->
        bench :: mode :: List.map (fun (_, rel) -> f2 rel) series)
      data
  in
  let rels =
    List.concat_map
      (fun (_, mode, series) ->
        if mode = "rtk" || mode = "pik" then List.map snd series else [])
      data
  in
  [
    Table.make
      ~title:"SecV-A: repetition on the 8-socket 192-core machine"
      ~headers:
        ("bench" :: "mode" :: List.map (fun n -> Printf.sprintf "%dcpu" n) scales)
      ~notes:
        [
          Printf.sprintf
            "paper: ~20%% for RTK and PIK; measured RTK+PIK geomean %.1f%%"
            (100.0 *. (geomean rels -. 1.0));
        ]
      rows;
  ]

(* ================================================================== *)
(* E6: selective coherence deactivation (Fig. 7)                       *)

let e6_tables () =
  let open Iw_coherence in
  let params = Machine.default_params ~cores:24 ~cores_per_socket:12 in
  let rows = Traces.fig7 ~params () in
  [
    Table.make
      ~title:"Fig.7: PBBS speedup from selective coherence deactivation (2x12)"
      ~headers:
        [ "bench"; "speedup"; "energy-reduction"; "inval(base)"; "inval(deact)" ]
      ~notes:
        [
          Printf.sprintf
            "paper: ~46%% average speedup, ~53%% interconnect energy reduction; measured %.1f%% and %.1f%%"
            (100.0 *. (Traces.average_speedup rows -. 1.0))
            (Traces.average_energy_reduction rows);
        ]
      (List.map
         (fun (r : Traces.row) ->
           [
             r.bench;
             f2 r.speedup;
             pct r.energy_reduction_pct;
             i2 r.base_invalidations;
             i2 r.deact_invalidations;
           ])
         rows);
  ]

(* ================================================================== *)
(* E7: CARAT overheads (§IV-A text)                                    *)

let e7_tables () =
  let rows = Iw_carat.Eval.table () in
  [
    Table.make ~title:"SecIV-A: CARAT guard+tracking overhead"
      ~headers:
        [
          "bench";
          "suite";
          "base(cyc)";
          "naive";
          "optimized";
          "dyn-guards naive";
          "dyn-guards opt";
        ]
      ~notes:
        [
          Printf.sprintf
            "paper: <6%% geomean with hoisting/aggregation; measured naive %.1f%%, optimized %.2f%%"
            (Iw_carat.Eval.geomean_naive rows)
            (Iw_carat.Eval.geomean_optimized rows);
        ]
      (List.map
         (fun (r : Iw_carat.Eval.row) ->
           [
             r.name;
             r.suite;
             i2 r.base_cycles;
             pct r.naive_pct;
             pct r.optimized_pct;
             i2 r.dyn_guards_naive;
             i2 r.dyn_guards_opt;
           ])
         rows);
  ]

(* ================================================================== *)
(* E8: virtine start-up (§IV-D text)                                   *)

let e8_tables () =
  let rows = Iw_virtine.Wasp.Faas.table () in
  let breakdown =
    Iw_virtine.Wasp.stages
      { Iw_virtine.Wasp.default with profile = Iw_virtine.Wasp.Bespoke_16 }
  in
  [
    Table.make ~title:"SecIV-D: virtine invocation latency (FaaS echo, 150us body)"
      ~headers:[ "configuration"; "spawn-only(us)"; "mean(us)"; "p50(us)"; "p99(us)" ]
      ~notes:
        [
          "paper: start-up overheads as low as ~100us with minimal/bespoke contexts.";
        ]
      (List.map
         (fun (r : Iw_virtine.Wasp.Faas.result) ->
           [
             r.config_name;
             Printf.sprintf "%.0f" r.spawn_only_us;
             Printf.sprintf "%.0f" r.mean_us;
             Printf.sprintf "%.0f" r.p50_us;
             Printf.sprintf "%.0f" r.p99_us;
           ])
         rows);
    Table.make ~title:"Bespoke-16 stage breakdown (SecV-E)"
      ~headers:[ "stage"; "cost(us)"; "elided?" ]
      (List.map
         (fun (s : Iw_virtine.Wasp.stage) ->
           [
             s.stage_name;
             Printf.sprintf "%.1f" s.stage_us;
             (if s.elided then "elided" else "paid");
           ])
         breakdown);
    (let load name config =
       let r =
         Iw_virtine.Wasp.Faas.run_load ~name config ~rate_per_s:4_000.0
           ~duration_s:0.25 ~concurrency:4 ~work_us:150.0
       in
       [
         r.lname;
         Printf.sprintf "%.0f%%" (100.0 *. r.utilization);
         Printf.sprintf "%.0f" r.mean_wait_us;
         Printf.sprintf "%.0f" r.p99_total_us;
       ]
     in
     Table.make
       ~title:
         "Under load: 4k req/s, 4 contexts, 150us bodies (queueing included)"
       ~headers:[ "configuration"; "utilization"; "mean wait(us)"; "p99(us)" ]
       ~notes:
         [
           "start-up cost is service time: slow context designs saturate";
           "and queueing explodes - the serverless motivation of SecIV-D.";
         ]
       [
         load "minimal-64" Iw_virtine.Wasp.default;
         load "minimal-64+snapshot"
           { Iw_virtine.Wasp.default with snapshot = true };
         load "bespoke-16"
           { Iw_virtine.Wasp.default with profile = Iw_virtine.Wasp.Bespoke_16 };
         load "bespoke-16+pool"
           {
             Iw_virtine.Wasp.default with
             profile = Iw_virtine.Wasp.Bespoke_16;
             pooled = true;
           };
       ]);
  ]

(* ================================================================== *)
(* E9: pipeline interrupts (§V-D)                                      *)

let e9_tables () =
  let plat = Platform.knl in
  let idt = Pipeline_interrupt.deliver plat Pipeline_interrupt.Idt in
  let br = Pipeline_interrupt.deliver plat Pipeline_interrupt.Branch_injected in
  let sweep =
    Pipeline_interrupt.sweep plat ~rate_hz:[ 1e4; 1e5; 1e6; 1e7 ]
  in
  [
    Table.make ~title:"SecV-D: interrupt delivery cost"
      ~headers:[ "mechanism"; "dispatch"; "return"; "total(cycles)" ]
      ~notes:
        [
          Printf.sprintf
            "paper: IDT dispatch ~1000 cycles; branch-injected 100-1000x cheaper (measured %.0fx)"
            (Pipeline_interrupt.speedup plat);
        ]
      [
        [ "idt"; i2 idt.dispatch_cycles; i2 idt.return_cycles; i2 idt.total_cycles ];
        [ "branch-injected"; i2 br.dispatch_cycles; i2 br.return_cycles; i2 br.total_cycles ];
      ];
    Table.make ~title:"Core time consumed by delivery at a given event rate"
      ~headers:[ "rate(Hz)"; "idt"; "branch-injected" ]
      (List.map
         (fun (rate, fi, fb) ->
           [ Printf.sprintf "%.0e" rate; pct (100.0 *. fi); pct (100.0 *. fb) ])
         sweep);
    (* §V-D names #GP delivery for CARAT protection faults and far
       memory (§V-C): every far-object access is a fault whose delivery
       mechanism is on the critical path. *)
    (let fm =
       Iw_carat.Far_memory.simulate ~objects:20_000 ~object_words:24
         ~accesses:200_000 ~zipf:0.9
         (Iw_carat.Far_memory.default
            ~local_capacity_words:(20_000 * 24 / 4)
            Iw_carat.Far_memory.Object)
     in
     let far_frac = 1.0 -. fm.local_hit_rate in
     let mean mech =
       let d = (Pipeline_interrupt.deliver plat mech).total_cycles in
       (4.0 *. fm.local_hit_rate) +. (far_frac *. float_of_int (400 + d))
     in
     Table.make
       ~title:
         "#GP use case (SecV-D x SecV-C): far-memory fault delivery, 25% local heap"
       ~headers:[ "mechanism"; "mean access (cycles)"; "vs no-fault baseline" ]
       ~notes:
         [
           Printf.sprintf
             "object-granular far memory leaves %.1f%% of accesses faulting to the far tier"
             (100.0 *. far_frac);
         ]
       [
         [
           "idt #GP";
           f2 (mean Pipeline_interrupt.Idt);
           f2 (mean Pipeline_interrupt.Idt /. 4.0);
         ];
         [
           "branch-injected #GP";
           f2 (mean Pipeline_interrupt.Branch_injected);
           f2 (mean Pipeline_interrupt.Branch_injected /. 4.0);
         ];
       ]);
  ]

(* ================================================================== *)
(* E10: Nautilus primitives (§III)                                     *)

let spawn_join_cost personality =
  let plat = Platform.with_cores Platform.knl 2 in
  let k = Sched.boot ~seed:5 ~personality plat in
  let elapsed = ref 0 in
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 } (fun () ->
         let t0 = Api.now () in
         for _ = 1 to 20 do
           Api.join (Api.spawn ~cpu:1 (fun () -> Api.work 100))
         done;
         elapsed := Api.now () - t0));
  Sched.run k;
  !elapsed / 20

let wake_latency personality =
  let plat = Platform.with_cores Platform.knl 2 in
  let k = Sched.boot ~seed:5 ~personality plat in
  let sem = Sched.semaphore ~init:0 in
  let posted = ref 0 and resumed = ref 0 in
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 } (fun () ->
         Api.sem_wait sem;
         resumed := Api.now ()));
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 1 } (fun () ->
         Api.work 200_000;
         posted := Api.now ();
         Api.sem_post sem));
  Sched.run k;
  !resumed - !posted

let e10_tables () =
  let plat = Platform.knl in
  let nk = Os.nautilus plat and lx = Os.linux plat in
  let nk_spawn = spawn_join_cost nk and lx_spawn = spawn_join_cost lx in
  let nk_wake = wake_latency nk and lx_wake = wake_latency lx in
  let nk_event = Stack.event_delivery_cycles (Stack.interwoven plat) in
  let lx_event = Stack.event_delivery_cycles (Stack.commodity plat) in
  let sp32_lx = Iw_omp.Nas.run plat Iw_omp.Runtime.Linux_user ~nthreads:32 Iw_omp.Nas.sp in
  let sp32_nk = Iw_omp.Nas.run plat Iw_omp.Runtime.Rtk ~nthreads:32 Iw_omp.Nas.sp in
  let app_gain =
    100.0
    *. (float_of_int sp32_lx.elapsed_cycles /. float_of_int sp32_nk.elapsed_cycles
       -. 1.0)
  in
  [
    Table.make ~title:"SecIII: primitive costs, Nautilus vs Linux (cycles)"
      ~headers:[ "primitive"; "nautilus"; "linux"; "ratio" ]
      ~notes:
        [
          "paper: thread management and event signaling orders of magnitude faster;";
          Printf.sprintf
            "paper: application speedups 20-40%% over Linux user level (measured NAS SP @32: %.0f%%)"
            app_gain;
        ]
      [
        [
          "thread create+join";
          i2 nk_spawn;
          i2 lx_spawn;
          f2 (float_of_int lx_spawn /. float_of_int nk_spawn);
        ];
        [
          "blocked-thread wake latency";
          i2 nk_wake;
          i2 lx_wake;
          f2 (float_of_int lx_wake /. float_of_int nk_wake);
        ];
        [
          "async event delivery";
          i2 nk_event;
          i2 lx_event;
          f2 (float_of_int lx_event /. float_of_int nk_event);
        ];
      ];
  ]

(* ================================================================== *)
(* E11: blended device polling (§V-C)                                  *)

let e11_tables () =
  let plat = Platform.knl in
  let rows =
    List.map
      (fun (p : Iw_ir.Programs.program) ->
        let r =
          Iw_passes.Polling_pass.measure ~poll_budget:1500
            ~completions:(List.init 25 (fun i -> (i + 1) * 4_000))
            ~plat p
        in
        [
          r.program;
          i2 r.polls_executed;
          Printf.sprintf "%d/%d" r.serviced r.completions;
          Printf.sprintf "%.0f" r.mean_latency;
          i2 r.max_latency;
          i2 r.interrupt_latency;
          pct r.overhead_pct;
        ])
      [ Iw_ir.Programs.vec_sum 4000; Iw_ir.Programs.mat_mul 20; Iw_ir.Programs.stencil_1d 3000 ]
  in
  [
    Table.make ~title:"SecV-C: blended (compiler-injected) device polling"
      ~headers:
        [
          "program";
          "polls";
          "serviced";
          "mean-lat(cyc)";
          "max-lat";
          "irq-path(cyc)";
          "overhead";
        ]
      ~notes:
        [
          "paper: devices appear interrupt-driven, but no interrupts ever occur.";
        ]
      rows;
  ]

(* ================================================================== *)
(* E12: compiler-timing accuracy (§IV-C)                               *)

let e12_tables () =
  let budget = 2000 in
  let rows =
    List.map
      (fun p ->
        let a = Iw_passes.Timing_pass.measure ~check_budget:budget p in
        [
          a.program;
          i2 a.budget;
          i2 a.max_gap;
          i2 a.checks;
          pct a.overhead_pct;
        ])
      (Iw_ir.Programs.timing_suite ())
  in
  [
    Table.make
      ~title:"SecIV-C: injected timing checks hit the budget on every path"
      ~headers:[ "program"; "budget(cyc)"; "max-gap(cyc)"; "checks"; "overhead" ]
      ~notes:
        [
          "paper: callbacks occur at the desired rate regardless of code path.";
        ]
      rows;
  ]

(* ================================================================== *)
(* E13: interrupt steering (§III)                                      *)

(* A barrier-structured OpenMP region under device-interrupt load:
   spread vectors hit workers mid-region and stretch every barrier;
   steering them to a housekeeping CPU hides them. *)
let steering_run policy =
  let plat = Platform.with_cores Platform.knl 16 in
  let k = Sched.boot ~seed:7 ~personality:(Os.nautilus plat) plat in
  let dev = Device_irq.start k ~rate_hz:200_000.0 ~handler_cost:2_000 policy in
  let finish = ref 0 in
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 } (fun () ->
         (* 15 workers on CPUs 0-14; CPU 15 is the housekeeping core
            the steered policy targets. *)
         let t = Iw_omp.Runtime.create k Iw_omp.Runtime.Rtk ~nthreads:15 in
         for _ = 1 to 40 do
           Iw_omp.Runtime.parallel_for t ~iters:16_384
             ~iter_cycles:(fun _ -> 120)
             ()
         done;
         finish := Api.now ();
         Iw_omp.Runtime.shutdown t;
         Device_irq.stop dev));
  Sched.run k;
  (!finish, Device_irq.delivered dev, Device_irq.per_cpu dev)

let e13_tables () =
  let spread, sn, scpu = steering_run Device_irq.Spread in
  let steered, tn, tcpu = steering_run (Device_irq.Steered 15) in
  let busiest a = Array.fold_left max 0 a in
  [
    Table.make ~title:"SecIII: steerable device interrupts (200kHz device, 15 workers + 1 housekeeping CPU)"
      ~headers:
        [ "policy"; "elapsed(cycles)"; "irqs"; "max irqs on one cpu"; "slowdown" ]
      ~notes:
        [
          "paper: interrupts are fully steerable and can largely be avoided";
          "on most hardware threads.";
        ]
      [
        [
          "spread (commodity)";
          i2 spread;
          i2 sn;
          i2 (busiest scpu);
          f2 (float_of_int spread /. float_of_int steered);
        ];
        [ "steered to cpu15 (NK)"; i2 steered; i2 tn; i2 (busiest tcpu); "1.00" ];
      ];
  ]

(* ================================================================== *)
(* E14: selective memory ordering (§V-B's fence argument)              *)

let e14_tables () =
  let open Iw_coherence in
  let rows =
    List.map
      (fun (label, data, unrelated) ->
        let run m =
          Consistency.producer_consumer ~iterations:2_000 ~data_stores:data
            ~unrelated_stores:unrelated m
        in
        let tso = run Consistency.Tso in
        let sel = run Consistency.Selective in
        [
          label;
          i2 tso.fence_stalls;
          i2 sel.fence_stalls;
          f2
            (float_of_int tso.total_cycles /. float_of_int sel.total_cycles);
        ])
      [
        ("2 data / 0 unrelated", 2, 0);
        ("2 data / 8 unrelated", 2, 8);
        ("2 data / 32 unrelated", 2, 32);
        ("8 data / 32 unrelated", 8, 32);
      ]
  in
  [
    Table.make
      ~title:"SecV-B: fence stalls, x86-TSO total order vs selective ordering"
      ~headers:
        [ "producer workload"; "tso fence stalls"; "selective stalls"; "speedup" ]
      ~notes:
        [
          "paper: a fence orders all pending writes even when only the";
          "producer's data needed ordering; selectivity removes the rest.";
        ]
      rows;
  ]

(* ================================================================== *)
(* E15: sub-page far memory via blending (§V-C)                        *)

let e15_tables () =
  let rows =
    Iw_carat.Far_memory.sweep ~objects:20_000 ~object_words:24
      ~accesses:400_000 ~zipf:0.9
      ~fractions:[ 0.1; 0.25; 0.5; 0.75 ]
      ()
  in
  [
    Table.make
      ~title:
        "SecV-C: transparent far memory, page-granular vs blended object-granular"
      ~headers:
        [
          "local fraction";
          "page hit-rate";
          "object hit-rate";
          "page slowdown";
          "object slowdown";
        ]
      ~notes:
        [
          "paper: compiler blending can evacuate objects to remote memory";
          "transparently, below page granularity.";
        ]
      (List.map
         (fun (frac, (pg : Iw_carat.Far_memory.result), obj) ->
           [
             pct (100.0 *. frac);
             pct (100.0 *. pg.local_hit_rate);
             pct (100.0 *. obj.Iw_carat.Far_memory.local_hit_rate);
             f2 pg.slowdown_vs_all_local;
             f2 obj.Iw_carat.Far_memory.slowdown_vs_all_local;
           ])
         rows);
  ]

(* ================================================================== *)
(* E16: language-derived hints (§V-G)                                  *)

(* An MPL-style fork-join program: each branch reduces its slice of a
   frozen input into private scratch, then publishes one cell of a
   shared result.  The runtime classifies every access; nobody wrote a
   hint by hand. *)
let mpl_program branches slice ctx =
  let open Iw_coherence.Mpl in
  let input = alloc ctx (branches * slice) ~init:1 in
  freeze ctx input;
  let result = alloc ctx branches ~init:0 in
  par_for ctx ~lo:0 ~hi:branches ~grain:1 (fun c b ->
      let scratch = alloc c slice ~init:0 in
      for i = 0 to slice - 1 do
        let v = read c input ((b * slice) + i) in
        write c scratch i (v + (if i > 0 then read c scratch (i - 1) else 0))
      done;
      write c result b (read c scratch (slice - 1)));
  Array.init branches (fun b -> read ctx result b)

let e16_tables () =
  let open Iw_coherence in
  let params = Machine.default_params ~cores:24 ~cores_per_socket:12 in
  let run deact =
    let m = Machine.create ~params deact in
    let sums, stats = Mpl.run ~machine:m (mpl_program 24 2_000) in
    (m, sums, stats)
  in
  let base, sums_a, _ = run Machine.Off in
  let deact, sums_b, stats = run Machine.Private_and_ro in
  if sums_a <> sums_b then failwith "E16: results diverged";
  let bm = Machine.makespan base and dm = Machine.makespan deact in
  let classified n =
    pct (100.0 *. float_of_int n /. float_of_int (max 1 stats.Mpl.accesses))
  in
  [
    Table.make
      ~title:"SecV-G: hints derived by the language runtime (MPL-style fork-join)"
      ~headers:[ "metric"; "value" ]
      ~notes:
        [
          "paper: properties the lower layers need are available by";
          "construction in high-level parallel languages.";
        ]
      [
        [ "accesses classified"; i2 stats.Mpl.accesses ];
        [ "  as private"; classified stats.Mpl.classified_private ];
        [ "  as read-only"; classified stats.Mpl.classified_ro ];
        [ "  as shared"; classified stats.Mpl.classified_shared ];
        [ "entanglements"; i2 stats.Mpl.entanglements ];
        [ "makespan, tracked MESI"; i2 bm ];
        [ "makespan, derived-hint deactivation"; i2 dm ];
        [ "speedup"; f2 (float_of_int bm /. float_of_int dm) ];
      ];
  ]

(* ================================================================== *)
(* Ablations                                                           *)

let a1_tables () =
  let configs =
    [
      ("none", Iw_passes.Carat_pass.{ aggregate = false; hoist = false });
      ("aggregate", Iw_passes.Carat_pass.{ aggregate = true; hoist = false });
      ("hoist", Iw_passes.Carat_pass.{ aggregate = false; hoist = true });
      ("aggregate+hoist", Iw_passes.Carat_pass.{ aggregate = true; hoist = true });
    ]
  in
  let rows =
    List.map
      (fun (name, config) ->
        let overheads =
          List.map
            (fun (p : Iw_ir.Programs.program) ->
              let base = Iw_ir.Interp.run (p.build ()) p.entry p.args in
              let m = p.build () in
              Iw_passes.Carat_pass.instrument ~config m;
              let rt = Iw_carat.Runtime.create () in
              let r = Iw_ir.Interp.run ~hooks:(Iw_carat.Runtime.hooks rt) m p.entry p.args in
              1.0
              +. (float_of_int (r.cycles - base.cycles) /. float_of_int base.cycles))
            (Iw_ir.Programs.carat_suite ())
        in
        [ name; pct (100.0 *. (geomean overheads -. 1.0)) ])
      configs
  in
  [
    Table.make ~title:"A1: CARAT optimization ablation (geomean overhead)"
      ~headers:[ "configuration"; "overhead" ]
      rows;
  ]

let a2_tables () =
  let p = Iw_ir.Programs.mat_mul 24 in
  let rows =
    List.map
      (fun budget ->
        let a = Iw_passes.Timing_pass.measure ~check_budget:budget p in
        [ i2 budget; i2 a.max_gap; i2 a.checks; pct a.overhead_pct ])
      [ 300; 1_000; 3_000; 10_000; 30_000 ]
  in
  [
    Table.make ~title:"A2: timing-check budget sweep (mat-mul)"
      ~headers:[ "budget"; "max-gap"; "checks"; "overhead" ]
      rows;
  ]

let a3_tables () =
  let open Iw_omp in
  let plat = Platform.with_cores Platform.knl 16 in
  let run schedule name =
    let k = Sched.boot ~seed:9 ~personality:(Os.nautilus plat) plat in
    let finish = ref 0 in
    ignore
      (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 } (fun () ->
           let t = Runtime.create k Runtime.Rtk ~nthreads:16 in
           (* Heavily imbalanced loop: cost ramps with the index. *)
           for _ = 1 to 4 do
             Runtime.parallel_for t ~schedule ~iters:4096
               ~iter_cycles:(fun i -> 50 + (i / 4))
               ()
           done;
           finish := Api.now ();
           Runtime.shutdown t));
    Sched.run k;
    [ name; i2 !finish ]
  in
  [
    Table.make ~title:"A3: worksharing schedule under imbalance (16 CPUs)"
      ~headers:[ "schedule"; "elapsed(cycles)" ]
      [
        run Runtime.Static "static";
        run (Runtime.Dynamic 64) "dynamic(64)";
        run (Runtime.Guided 32) "guided(32)";
      ];
  ]

let a4_tables () =
  let open Iw_coherence in
  let params = Machine.default_params ~cores:24 ~cores_per_socket:12 in
  let benches = [ Traces.samplesort; Traces.bfs; Traces.nbody ] in
  let rows =
    List.map
      (fun (bench : Traces.bench) ->
        let time d = Machine.makespan (Traces.run_bench ~params d bench) in
        let base = time Machine.Off in
        let speedup d = f2 (float_of_int base /. float_of_int (time d)) in
        [
          bench.bench_name;
          speedup Machine.Private_only;
          speedup Machine.Private_and_ro;
        ])
      benches
  in
  [
    Table.make ~title:"A4: which hints matter (speedup vs tracked MESI)"
      ~headers:[ "bench"; "private-only"; "private+read-only" ]
      rows;
  ]

let a5_tables () =
  let open Iw_heartbeat in
  let rows =
    List.map
      (fun div ->
        let r =
          Tpal.run ~promote_div:div Platform.knl
            { workers = 16; heartbeat_us = 20.0; driver = Tpal.Nk_ipi; seed = 11 }
            Tpal.spmv
        in
        [
          i2 div;
          i2 r.promotions;
          i2 r.steals;
          pct r.overhead_pct;
          f2 r.speedup_vs_serial;
        ])
      [ 2; 4; 8 ]
  in
  let tree_rows =
    List.map
      (fun (policy, name) ->
        let r =
          Tpal.Tree.run Platform.knl
            { workers = 16; heartbeat_us = 30.0; policy; seed = 4 }
            (Tpal.Tree.fib 22)
        in
        [
          name;
          i2 r.nodes_run;
          i2 r.promotions;
          i2 r.steals;
          pct r.overhead_pct;
          f2 r.speedup_vs_serial;
        ])
      [
        (Tpal.Tree.Promote_oldest, "promote-oldest (heartbeat rule)");
        (Tpal.Tree.Promote_newest, "promote-newest (foil)");
      ]
  in
  [
    Table.make
      ~title:"A5a: range promotion aggressiveness (split 1/div per beat)"
      ~headers:[ "div"; "promotions"; "steals"; "overhead"; "speedup" ]
      rows;
    Table.make
      ~title:"A5b: nested fork-join promotion policy (fib tree, 16 workers)"
      ~headers:[ "policy"; "nodes"; "promotions"; "steals"; "overhead"; "speedup" ]
      ~notes:
        [
          "Promoting the oldest latent frame yields few, large tasks (the";
          "provable-bounds rule); promoting the newest floods the system";
          "with leaf-sized tasks and erases the parallel speedup.";
        ]
      tree_rows;
  ]

(* ================================================================== *)
(* R1-R4: deterministic fault injection and cross-layer recovery.

   Each row of an R table runs one workload under a scoped fault plan
   at a pinned (rate, seed): the hardware layer injects (dropped IPIs,
   dead timer fires, dark cores, spurious shootdowns) and the layers
   above compensate (ack+resend, watchdog polling, relaunch, protocol
   refetch).  The tables are degradation curves — elapsed time or
   latency vs fault rate — with the fault and recovery counters
   alongside, so the claim "promotion still happens, just later" is a
   number, not a sentence. *)

module Plan = Iw_faults.Plan

(* Run one (rate, seed, kinds) point under its own fault plan and a
   child collecting context; returns the result plus that run's
   counter totals.  The totals are merged back into the enclosing
   ambient counters, so golden gating and bench JSON still see the
   fault/recovery traffic; the row's own totals feed the table cells.
   Both scopes are domain-local, so R tables are stable under `-j`. *)
let run_faulted ~rate ~seed ~kinds f =
  let outer = Iw_obs.Obs.ambient () in
  let row = Iw_obs.Obs.create ~trace:outer.Iw_obs.Obs.trace ~collect:true () in
  let plan = Plan.create ~rate ~seed ~kinds () in
  let result =
    Iw_obs.Obs.with_ambient row (fun () -> Plan.with_ambient plan f)
  in
  let totals = Iw_obs.Obs.total_counters row in
  Iw_obs.Counter.merge_into ~dst:outer.Iw_obs.Obs.counters totals;
  (result, totals)

let rate_cell rate = if rate = 0.0 then "0" else Printf.sprintf "%.0e" rate

let slowdown_cell ~base v =
  f2 (float_of_int v /. float_of_int (max 1 base))

let r1_bench =
  {
    Iw_heartbeat.Tpal.bench_name = "spmv-r";
    ranges = [ { items = 800_000; grain = 10 }; { items = 480_000; grain = 60 } ];
  }

let r1_tables () =
  let open Iw_heartbeat in
  let kinds = Plan.[ Ipi_drop; Ipi_delay; Timer_miss ] in
  let runs =
    List.map
      (fun rate ->
        let r, c =
          run_faulted ~rate ~seed:42 ~kinds (fun () ->
              Tpal.run Platform.knl
                { workers = 8; heartbeat_us = 20.0; driver = Tpal.Nk_ipi; seed = 11 }
                r1_bench)
        in
        (rate, (r : Tpal.report), c))
      [ 0.0; 1e-3; 1e-2; 5e-2 ]
  in
  let base =
    match runs with (_, r, _) :: _ -> r.Tpal.elapsed_cycles | [] -> 1
  in
  let rows =
    List.map
      (fun (rate, (r : Tpal.report), c) ->
        let g id = Iw_obs.Counter.get c id in
        [
          rate_cell rate;
          i2 r.elapsed_cycles;
          slowdown_cell ~base r.elapsed_cycles;
          i2 r.promotions;
          i2 (g Iw_obs.Counter.Fault_injected);
          i2 (g Iw_obs.Counter.Ipi_retry);
          i2 (g Iw_obs.Counter.Watchdog_fire);
        ])
      runs
  in
  [
    Table.make
      ~title:"R1: heartbeat (TPAL, NK-IPI) under a lossy wire (8 CPUs)"
      ~headers:
        [
          "fault-rate"; "elapsed(cycles)"; "slowdown"; "promotions"; "faults";
          "ipi-retries"; "watchdog";
        ]
      ~notes:
        [
          "kinds: ipi-drop, ipi-delay, timer-miss.  The workload always";
          "completes: lost heartbeats are resent (kernel ack+backoff) or";
          "delivered by the watchdog's software polling, so promotion";
          "still happens - just later.";
        ]
      rows;
    (* The resend machinery recovers individual drops so well the
       watchdog never fires above; kill the timer source itself to
       show the next layer up catching what resends cannot. *)
    (let r, c =
       run_faulted ~rate:0.9 ~seed:42 ~kinds:[ Plan.Timer_miss ] (fun () ->
           Tpal.run Platform.knl
             { workers = 8; heartbeat_us = 20.0; driver = Tpal.Nk_ipi; seed = 11 }
             r1_bench)
     in
     let g id = Iw_obs.Counter.get c id in
     Table.make
       ~title:"R1b: watchdog fallback under a mostly-dead heartbeat timer"
       ~headers:
         [
           "timer-miss-rate"; "elapsed(cycles)"; "promotions"; "deliveries";
           "watchdog"; "faults";
         ]
       ~notes:
         [
           "90% of timer fires swallowed: heartbeats now arrive mostly via";
           "the watchdog's software polling, and every promotion still";
           "completes.";
         ]
       [
         [
           "9e-01";
           i2 r.Tpal.elapsed_cycles;
           i2 r.Tpal.promotions;
           i2 r.Tpal.deliveries;
           i2 (g Iw_obs.Counter.Watchdog_fire);
           i2 (g Iw_obs.Counter.Fault_injected);
         ];
       ]);
  ]

let r2_tables () =
  let open Iw_virtine in
  let kinds = Plan.[ Virtine_fail; Pool_poison ] in
  let runs =
    List.map
      (fun rate ->
        let r, c =
          run_faulted ~rate ~seed:42 ~kinds (fun () ->
              Wasp.Faas.run ~seed:7 ~name:"bespoke-16+pool"
                { Wasp.default with profile = Wasp.Bespoke_16; pooled = true }
                ~requests:400 ~work_us:150.0)
        in
        (rate, (r : Wasp.Faas.result), c))
      [ 0.0; 1e-2; 5e-2; 2e-1 ]
  in
  let base_mean =
    match runs with (_, r, _) :: _ -> r.Wasp.Faas.mean_us | [] -> 1.0
  in
  let rows =
    List.map
      (fun (rate, (r : Wasp.Faas.result), c) ->
        let g id = Iw_obs.Counter.get c id in
        [
          rate_cell rate;
          f2 r.mean_us;
          f2 r.p99_us;
          f2 (r.mean_us /. base_mean);
          i2 (g Iw_obs.Counter.Fault_injected);
          i2 (g Iw_obs.Counter.Virtine_relaunch);
          i2 (g Iw_obs.Counter.Pool_evict);
        ])
      runs
  in
  [
    Table.make
      ~title:"R2: virtine FaaS latency under launch failures (bespoke-16+pool)"
      ~headers:
        [
          "fault-rate"; "mean(us)"; "p99(us)"; "slowdown"; "faults";
          "relaunches"; "pool-evicts";
        ]
      ~notes:
        [
          "kinds: virtine-fail, pool-poison.  Every request is served: a";
          "failed boot pays a partial launch and retries; a poisoned warm";
          "context is evicted before dispatch instead of running corrupt.";
        ]
      rows;
  ]

let r3_tables () =
  let open Iw_omp in
  let kinds = Plan.[ Timer_miss; Timer_late; Cpu_stall ] in
  let plat = Platform.with_cores Platform.knl 8 in
  let run_once () =
    let k = Sched.boot ~seed:9 ~personality:(Os.nautilus plat) plat in
    let finish = ref 0 in
    ignore
      (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 }
         (fun () ->
           let t = Runtime.create k Runtime.Rtk ~nthreads:8 in
           for _ = 1 to 2 do
             Runtime.parallel_for t ~schedule:(Runtime.Dynamic 64) ~iters:4096
               ~iter_cycles:(fun i -> 50 + (i / 8))
               ()
           done;
           finish := Api.now ();
           Runtime.shutdown t));
    Sched.run k;
    !finish
  in
  let runs =
    List.map
      (fun rate ->
        let elapsed, c = run_faulted ~rate ~seed:42 ~kinds run_once in
        (rate, elapsed, c))
      [ 0.0; 1e-3; 1e-2; 5e-2 ]
  in
  let base = match runs with (_, e, _) :: _ -> e | [] -> 1 in
  let rows =
    List.map
      (fun (rate, elapsed, c) ->
        let g id = Iw_obs.Counter.get c id in
        [
          rate_cell rate;
          i2 elapsed;
          slowdown_cell ~base elapsed;
          i2 (g Iw_obs.Counter.Fault_injected);
          i2 (g Iw_obs.Counter.Omp_chunks);
        ])
      runs
  in
  [
    Table.make
      ~title:"R3: OMP dynamic worksharing under dark cores (8 CPUs, dynamic(64))"
      ~headers:
        [ "fault-rate"; "elapsed(cycles)"; "slowdown"; "faults"; "chunks" ]
      ~notes:
        [
          "kinds: timer-miss, timer-late, cpu-stall.  Dynamic scheduling is";
          "the recovery: a stalled core simply claims fewer chunks, and the";
          "loop's barrier still closes.";
        ]
      rows;
  ]

let r4_tables () =
  let open Iw_coherence in
  let kinds = Plan.[ Tlb_shootdown ] in
  let params = Machine.default_params ~cores:8 ~cores_per_socket:4 in
  let bench = { Traces.samplesort with accesses_per_core = 4_000 } in
  let runs =
    List.map
      (fun rate ->
        let m, c =
          run_faulted ~rate ~seed:42 ~kinds (fun () ->
              let m = Traces.run_bench ~params Machine.Off bench in
              if not (Machine.swmr_holds m) then
                failwith "R4: SWMR violated under injected shootdowns";
              m)
        in
        (rate, m, c))
      [ 0.0; 1e-3; 1e-2; 5e-2 ]
  in
  let base =
    match runs with (_, m, _) :: _ -> Machine.makespan m | [] -> 1
  in
  let rows =
    List.map
      (fun (rate, m, c) ->
        let g id = Iw_obs.Counter.get c id in
        let mc = Machine.counters m in
        [
          rate_cell rate;
          i2 (Machine.makespan m);
          slowdown_cell ~base (Machine.makespan m);
          i2 (g Iw_obs.Counter.Fault_injected);
          i2 mc.Machine.misses;
          i2 mc.Machine.writebacks;
        ])
      runs
  in
  [
    Table.make
      ~title:"R4: tracked MESI under spurious line shootdowns (samplesort, 8 cores)"
      ~headers:
        [
          "fault-rate"; "makespan(cycles)"; "slowdown"; "faults"; "misses";
          "writebacks";
        ]
      ~notes:
        [
          "kind: tlb-shootdown (modeled as a spurious invalidation of the";
          "accessed line).  MESI itself is the recovery - the victim core";
          "refetches through the directory; SWMR is asserted every run.";
        ]
      rows;
  ]

(* ================================================================== *)
(* S1-S4: the service plane.

   The paper argues that specialization in the lower layers (a
   Nautilus-like kernel, bespoke virtine contexts) pays off for the
   software above.  The S experiments make that visible the way a
   services person would: drive open-loop load through queues and
   dispatch policies over the simulated stack and read the answer off
   the tail of the latency distribution.  Everything is deterministic
   — arrivals, dispatch, and fault draws come from dedicated RNG
   streams — so the tables golden-gate byte-for-byte. *)

let s_plat = Platform.knl
let s_duration_us = 50_000.0

let s_run ?(os = Iw_service.Plane.Nk) ?(policy = Iw_service.Dispatch.Po2)
    ?(order = Iw_service.Squeue.Fifo) ?(cap = 64)
    ?(backend = Iw_service.Plane.Fiber_exec) ?(work_us = 20.0)
    ?(demand = Iw_service.Workload.Dfixed) ?(seed = 42) workload =
  Iw_service.Plane.run
    {
      os;
      plat = s_plat;
      workers = 8;
      workload;
      policy;
      order;
      queue_cap = cap;
      backend;
      work_us;
      hi_frac = 0.0;
      demand;
      seed;
    }

let s_p (r : Iw_service.Plane.report) pct =
  Iw_service.Plane.percentile_us r r.rep_total pct

let s_bespoke_pooled =
  {
    Iw_virtine.Wasp.default with
    profile = Iw_virtine.Wasp.Bespoke_16;
    snapshot = true;
    pooled = true;
  }

let s1_loads = [ 160_000.0; 280_000.0; 340_000.0; 370_000.0 ]
let s1_pinned = 340_000.0

let s1_tables () =
  let run os rps =
    s_run ~os (Iw_service.Workload.Poisson { rps; duration_us = s_duration_us })
  in
  let data =
    List.map
      (fun rps -> (rps, run Iw_service.Plane.Nk rps, run Iw_service.Plane.Linux rps))
      s1_loads
  in
  let rows =
    List.map
      (fun (rps, nk, lx) ->
        [
          Printf.sprintf "%.0fk" (rps /. 1000.0);
          f2 nk.Iw_service.Plane.rep_utilization;
          f2 (s_p nk 50.0);
          f2 (s_p nk 99.0);
          f2 (s_p nk 99.9);
          f2 (s_p lx 50.0);
          f2 (s_p lx 99.0);
          f2 (s_p lx 99.9);
          f2 (s_p lx 99.0 /. s_p nk 99.0);
        ])
      data
  in
  let _, pk, pl =
    List.find (fun (rps, _, _) -> rps = s1_pinned) data
  in
  [
    Table.make ~title:"S1: throughput vs p99 - NK-like vs Linux-like personality"
      ~headers:
        [
          "offered"; "util"; "nk-p50us"; "nk-p99us"; "nk-p99.9us"; "lx-p50us";
          "lx-p99us"; "lx-p99.9us"; "lx/nk-p99";
        ]
      ~notes:
        [
          "8 workers + 1 frontend CPU, 20us bodies on fibers, po2 dispatch,";
          "fifo order, cap 64, Poisson arrivals for 50ms.  Per-request costs";
          "that differ by personality (futex block/wake + kernel crossings +";
          "wake latency + tick noise vs lightweight NK paths) compound";
          "through the queues into the tail.";
          Printf.sprintf
            "At the pinned %.0fk rps offered load the NK-like stack delivers"
            (s1_pinned /. 1000.0);
          Printf.sprintf
            "p99 = %.2f us vs %.2f us Linux-like (%.0f%% higher tail)."
            (s_p pk 99.0) (s_p pl 99.0)
            (100.0 *. ((s_p pl 99.0 /. s_p pk 99.0) -. 1.0));
        ]
      rows;
  ]

let s2_pools = [ 0; 4; 16; 64 ]

let s2_tables () =
  let workload =
    Iw_service.Workload.Bursty
      {
        rps_on = 50_000.0;
        rps_off = 6_000.0;
        mean_on_us = 5_000.0;
        mean_off_us = 5_000.0;
        duration_us = s_duration_us;
      }
  in
  let rows =
    List.map
      (fun pool ->
        let r =
          s_run
            ~backend:
              (Iw_service.Plane.Virtine_exec { vconfig = s_bespoke_pooled; pool })
            workload
        in
        [
          i2 pool;
          i2 r.Iw_service.Plane.rep_completed;
          i2 r.rep_pool_hits;
          i2 r.rep_spawns;
          f2 (s_p r 50.0);
          f2 (s_p r 99.0);
          f2 (s_p r 99.9);
        ])
      s2_pools
  in
  [
    Table.make ~title:"S2: virtine pool sizing under bursty arrivals"
      ~headers:
        [
          "pool"; "completed"; "pool-hits"; "spawns"; "p50us"; "p99us";
          "p99.9us";
        ]
      ~notes:
        [
          "MMPP on/off arrivals (50k/6k rps, 5ms mean dwell) executed as";
          "bespoke 16-bit virtine calls; a consumed warm context only";
          "returns to the pool one cold-spawn latency later, so bursts";
          "drain small pools and fall back to cold boots - the serverless";
          "cold-start story as a pool-size knob.";
        ]
      rows;
  ]

let s3_tables () =
  let workload =
    Iw_service.Workload.Poisson { rps = 340_000.0; duration_us = s_duration_us }
  in
  let rows =
    List.map
      (fun policy ->
        let r = s_run ~policy workload in
        [
          Iw_service.Dispatch.name policy;
          f2 (Iw_service.Plane.mean_us r r.Iw_service.Plane.rep_queue);
          f2 (s_p r 50.0);
          f2 (s_p r 99.0);
          f2 (s_p r 99.9);
          i2 r.rep_shed;
        ])
      Iw_service.Dispatch.all
  in
  [
    Table.make ~title:"S3: dispatch policy shootout at 0.85 load"
      ~headers:[ "policy"; "q-mean-us"; "p50us"; "p99us"; "p99.9us"; "shed" ]
      ~notes:
        [
          "Poisson 340k rps over 8 workers (20us bodies, fifo, cap 64).";
          "With near-deterministic service times cyclic assignment (rr) is";
          "close to optimal; blind random sampling is catastrophic at this";
          "load.  jsq scans every queue; po2 samples just two and already";
          "recovers most of the distance from random back to jsq - the";
          "power-of-two-choices result.";
        ]
      rows;
  ]

let s4_rates = [ 0.0; 1e-3; 1e-2; 5e-2 ]

let s4_tables () =
  let kinds = Plan.[ Cpu_stall; Virtine_fail; Pool_poison ] in
  let workload =
    Iw_service.Workload.Poisson { rps = 60_000.0; duration_us = s_duration_us }
  in
  let runs =
    List.map
      (fun rate ->
        let r, c =
          run_faulted ~rate ~seed:42 ~kinds (fun () ->
              s_run
                ~backend:
                  (Iw_service.Plane.Virtine_exec
                     { vconfig = s_bespoke_pooled; pool = 16 })
                workload)
        in
        (rate, r, c))
      s4_rates
  in
  let base = match runs with (_, r, _) :: _ -> s_p r 99.0 | [] -> 1.0 in
  let rows =
    List.map
      (fun (rate, r, c) ->
        let g id = Iw_obs.Counter.get c id in
        [
          rate_cell rate;
          i2 r.Iw_service.Plane.rep_completed;
          i2 (g Iw_obs.Counter.Fault_injected);
          i2 (g Iw_obs.Counter.Virtine_relaunch);
          i2 (g Iw_obs.Counter.Pool_evict);
          f2 (s_p r 99.0);
          f2 (s_p r 99.0 /. base);
        ])
      runs
  in
  [
    Table.make ~title:"S4: tail latency vs fault rate under load"
      ~headers:
        [
          "fault-rate"; "completed"; "faults"; "relaunches"; "pool-evicts";
          "p99us"; "p99-slowdown";
        ]
      ~notes:
        [
          "Poisson 60k rps served as pooled bespoke virtines while a scoped";
          "fault plan injects CPU stalls, failed virtine launches, and";
          "poisoned pool entries.  Every request still completes - the";
          "recovery machinery (relaunch, pool eviction) converts faults";
          "into tail latency rather than errors.";
        ]
      rows;
  ]

(* S5: the scale run.  A million-plus requests per config, pushed
   through both execution backends.  The interesting columns are the
   ones that must NOT grow with request count: the arena high-water
   capacity and doubling count (in-flight requests, not total
   requests — the flat state machines + request arena make
   steady-state processing allocation-free).  The Gc-measured words
   live in the bench JSON and the `serve --alloc-budget` gate, not in
   this table: Gc.quick_stat includes terminated sibling domains, so
   printing it here would break parallel-vs-serial byte-identity. *)

let s5_tables () =
  (* Per-backend offered load, each totalling >1M requests: fibers
     take ~0.88 load at 350k rps; a warm bespoke-pooled virtine call
     costs ~129us (snapshot-restore 83us + pool dispatch 9us + jitter,
     then marshal + body + teardown), so that backend's capacity over
     8 workers is ~62k rps and it runs longer at 55k (~0.89 load)
     with the pool provisioned well above the in-flight high-water
     mark (S2 showed what an undersized pool does to the tail). *)
  let backends =
    [
      (Iw_service.Plane.Fiber_exec, 350_000.0, 3_000_000.0);
      ( Iw_service.Plane.Virtine_exec { vconfig = s_bespoke_pooled; pool = 512 },
        55_000.0,
        20_000_000.0 );
    ]
  in
  let rows =
    List.map
      (fun (backend, rps, duration_us) ->
        let r =
          s_run ~backend (Iw_service.Workload.Poisson { rps; duration_us })
        in
        [
          r.Iw_service.Plane.rep_backend;
          i2 r.Iw_service.Plane.rep_completed;
          i2 r.rep_shed;
          f2 (s_p r 50.0);
          f2 (s_p r 99.0);
          i2 r.rep_arena_capacity;
          i2 r.rep_arena_grows;
        ])
      backends
  in
  [
    Table.make ~title:"S5: 1M-request scale run - allocation-free hot path"
      ~headers:
        [
          "backend"; "completed"; "shed"; "p50us"; "p99us"; "arena-cap";
          "arena-grows";
        ]
      ~notes:
        [
          "Poisson arrivals over 8 workers (20us bodies, po2, fifo, cap 64):";
          "350k rps x 3s on fibers, 55k rps x 20s as pooled bespoke";
          "virtines - >1M requests per config.  Requests are arena indices,";
          "workers and the load generator are flat state machines, and the";
          "engine's firing machinery is closure- and ref-free, so the";
          "arena high-water mark, not the request count, bounds memory:";
          "the arena stops doubling once the in-flight peak is reached.";
          "The minor-heap profile (0 words/steady-state request) is";
          "measured where the process is single-domain and gated by";
          "`test/smokes.t`; Gc.quick_stat folds in terminated sibling";
          "domains, so a per-run figure here would be racy under --jobs.";
        ]
      rows;
  ]

(* S6/S7: the fleet.  The service plane scaled out — N simulated
   machines (mixed personalities and cost tables) behind a balancing
   front tier, every signal and every request crossing a modeled
   network.  The point of S6 is that *where a dispatch signal travels*
   changes which policy wins: queue-aware policies act on gossip that
   is one link latency plus one gossip period stale, and at high
   staleness the herd effect hands the win back to signal-free
   policies.  S7 runs the interweaving argument in reverse across the
   network layer: drops, delays, and machine pauses become retries,
   ejections, and tail latency, not errors. *)

let s6_fleet ~policy ~gossip_us ~rps =
  let open Iw_service in
  {
    (Fleet.default ()) with
    Fleet.fc_machines =
      [|
        { (Fleet.knl_spec ~workers:4 ()) with Fleet.ms_name = "knl0" };
        { (Fleet.knl_spec ~workers:4 ()) with Fleet.ms_name = "knl1" };
        { (Fleet.server_spec ~workers:2 ()) with Fleet.ms_name = "srv0" };
        { (Fleet.server_spec ~workers:2 ()) with Fleet.ms_name = "srv1" };
      |];
    fc_workload = Workload.Poisson { rps; duration_us = 30_000.0 };
    fc_policy = policy;
    fc_gossip_us = gossip_us;
  }

let s6_p (r : Iw_service.Fleet.report) pct =
  Iw_service.Fleet.percentile_us r r.fr_total pct

(* 2x knl-like (4 workers, 20us bodies) + 2x server-like (2 faster
   workers, 8us bodies): fleet capacity ~0.9 req/us; drive 0.85. *)
let s6_rps = 765_000.0
let s6_staleness = [ 25.0; 100.0; 400.0 ]

let s6_tables () =
  let run policy gossip_us =
    Iw_service.Fleet.run (s6_fleet ~policy ~gossip_us ~rps:s6_rps)
  in
  let row name gossip_us (r : Iw_service.Fleet.report) =
    [
      name;
      f2 gossip_us;
      i2 r.fr_completed;
      i2 r.fr_retries;
      i2 r.fr_nacks;
      f2 (s6_p r 50.0);
      f2 (s6_p r 99.0);
      f2 (s6_p r 99.9);
    ]
  in
  let blind =
    List.map
      (fun policy ->
        let r = run policy 100.0 in
        row (Iw_service.Dispatch.name policy) 100.0 r)
      [ Iw_service.Dispatch.Round_robin; Iw_service.Dispatch.Random ]
  in
  let aware =
    List.concat_map
      (fun policy ->
        List.map
          (fun gossip_us ->
            let r = run policy gossip_us in
            row (Iw_service.Dispatch.name policy) gossip_us r)
          s6_staleness)
      [ Iw_service.Dispatch.Jsq; Iw_service.Dispatch.Po2; Iw_service.Dispatch.Wjsq ]
  in
  [
    Table.make ~title:"S6: heterogeneous fleet dispatch vs gossip staleness"
      ~headers:
        [
          "policy"; "gossip-us"; "completed"; "retries"; "nacks"; "p50us";
          "p99us"; "p99.9us";
        ]
      ~notes:
        [
          "Poisson 765k rps (0.85 fleet load) over 2x knl-like (4 workers,";
          "20us bodies) + 2x server-like (2 workers 2.5x faster) behind a";
          "front tier; requests and queue-depth gossip cross a 15us/10Gbps";
          "modeled network.  Queue-aware policies (jsq, po2, wjsq) see";
          "depths one latency + one gossip period stale: fresh gossip";
          "beats the blind policies, stale gossip herds the fleet into";
          "whichever machine last reported shortest and pays in nacks and";
          "tail; capacity weighting (wjsq) only redirects the herd toward";
          "the faster boxes - it cannot repair a stale signal.";
        ]
      (blind @ aware);
  ]

let s7_machines () =
  let open Iw_service in
  [|
    { (Fleet.knl_spec ~workers:4 ()) with Fleet.ms_name = "knl0" };
    { (Fleet.knl_spec ~workers:4 ()) with Fleet.ms_name = "knl1" };
    { (Fleet.server_spec ~workers:2 ()) with Fleet.ms_name = "srv0" };
  |]

let s7_tables () =
  let open Iw_service in
  let kinds = Plan.[ Link_drop; Link_delay; Machine_pause ] in
  let cfg =
    {
      (Fleet.default ()) with
      Fleet.fc_machines = s7_machines ();
      fc_workload =
        Workload.Poisson { rps = 390_000.0; duration_us = 30_000.0 };
      fc_policy = Dispatch.Po2;
      fc_gossip_us = 50.0;
    }
  in
  let runs =
    List.map
      (fun rate ->
        let r, c = run_faulted ~rate ~seed:42 ~kinds (fun () -> Fleet.run cfg) in
        (rate, r, c))
      s4_rates
  in
  let base = match runs with (_, r, _) :: _ -> s6_p r 99.0 | [] -> 1.0 in
  let rows =
    List.map
      (fun (rate, (r : Fleet.report), c) ->
        let g id = Iw_obs.Counter.get c id in
        [
          rate_cell rate;
          i2 r.fr_completed;
          i2 r.fr_failed;
          i2 (g Iw_obs.Counter.Fault_injected);
          i2 r.fr_net_drops;
          i2 r.fr_retries;
          i2 r.fr_ejects;
          f2 (s6_p r 99.0);
          f2 (s6_p r 99.0 /. base);
        ])
      runs
  in
  [
    Table.make ~title:"S7: fleet degradation under network faults"
      ~headers:
        [
          "fault-rate"; "completed"; "failed"; "faults"; "drops"; "retries";
          "ejects"; "p99us"; "p99-slowdown";
        ]
      ~notes:
        [
          "Poisson 390k rps (0.65 load) over 2x knl-like + 1x server-like";
          "while a scoped fault plan drops and delays link messages and";
          "pauses whole machines for a sync window.  The front tier";
          "recovers with per-attempt timeouts, nack-triggered fast";
          "retries, and streak-based ejection; faults surface as retry";
          "traffic and p99 growth, with requests failing outright only";
          "once the retry budget is spent.";
        ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* R5-R8: degradation curves with each recovery toggled on/off.  One
   shared fleet (the S7 mix plus an SLO and a heavy-ish tail keeps the
   curves honest: recoveries must buy goodput under load, not in an
   idle fleet), one toggle per table, rows = fault rate x recovery. *)

let deg_cfg () =
  let open Iw_service in
  {
    (Fleet.default ()) with
    Fleet.fc_machines = s7_machines ();
    fc_workload = Workload.Poisson { rps = 300_000.0; duration_us = 20_000.0 };
    fc_policy = Dispatch.Po2;
    fc_gossip_us = 50.0;
    fc_slo_us = 400.0;
    fc_slo_target = 0.999;
    fc_deadline_us = 400.0;
    fc_demand =
      Workload.Dpareto { alpha = 1.5; xmin_us = 12.0; xmax_us = 240.0 };
  }

(* Overall burn rate for the run against [deg_cfg]'s target.  1.00 =
   burning exactly the error budget. *)
let deg_burn (r : Iw_service.Fleet.report) =
  if r.fr_slo_total = 0 then "0"
  else
    f2
      (Iw_service.Fleet.burn ~target:(deg_cfg ()).fc_slo_target
         ~good:r.fr_slo_good ~total:r.fr_slo_total)

let deg_runs ~kinds ~with_cfg =
  let open Iw_service in
  List.concat_map
    (fun rate ->
      List.map
        (fun on ->
          let r, c =
            run_faulted ~rate ~seed:42 ~kinds (fun () ->
                Fleet.run (with_cfg on))
          in
          (rate, on, (r : Fleet.report), c))
        [ false; true ])
    s4_rates

let onoff on = if on then "on" else "off"

let r5_tables () =
  let open Iw_service in
  let runs =
    deg_runs
      ~kinds:Plan.[ Worker_hang ]
      ~with_cfg:(fun on -> { (deg_cfg ()) with Fleet.fc_watchdog = on })
  in
  let rows =
    List.map
      (fun (rate, on, (r : Fleet.report), c) ->
        let g id = Iw_obs.Counter.get c id in
        [
          rate_cell rate;
          onoff on;
          i2 r.fr_completed;
          i2 r.fr_failed;
          i2 (g Iw_obs.Counter.Fault_injected);
          i2 r.fr_steals;
          i2 r.fr_slo_good;
          f2 (s6_p r 99.0);
          deg_burn r;
        ])
      runs
  in
  [
    Table.make ~title:"R5: worker hangs vs the hang watchdog"
      ~headers:
        [
          "fault-rate"; "watchdog"; "completed"; "failed"; "faults"; "steals";
          "slo-good"; "p99us"; "burn";
        ]
      ~notes:
        [
          "Workers silently stop draining their queue (a quarter of the";
          "hangs are permanent).  Off: queued requests sit until the";
          "front tier's RTO re-sends them, and permanently hung workers";
          "strand capacity for the rest of the run.  On: a per-machine";
          "watchdog scans every quarter hang-period and steals the hung";
          "worker's queue onto its shortest live peer.";
        ]
      rows;
  ]

let r6_tables () =
  let open Iw_service in
  let runs =
    deg_runs
      ~kinds:Plan.[ Req_corrupt ]
      ~with_cfg:(fun on -> { (deg_cfg ()) with Fleet.fc_corrupt_retry = on })
  in
  let rows =
    List.map
      (fun (rate, on, (r : Fleet.report), c) ->
        let g id = Iw_obs.Counter.get c id in
        [
          rate_cell rate;
          onoff on;
          i2 r.fr_completed;
          i2 r.fr_failed;
          i2 (g Iw_obs.Counter.Fault_injected);
          i2 r.fr_corrupt_retries;
          i2 r.fr_slo_good;
          f2 (s6_p r 99.0);
          deg_burn r;
        ])
      runs
  in
  [
    Table.make ~title:"R6: response corruption vs re-execution"
      ~headers:
        [
          "fault-rate"; "re-exec"; "completed"; "failed"; "faults"; "re-execs";
          "slo-good"; "p99us"; "burn";
        ]
      ~notes:
        [
          "A completed response comes back garbage.  Off: the caller";
          "accepts it (counted complete, never SLO-good).  On: the front";
          "tier burns the work and re-executes through the ordinary";
          "retry budget, trading p99 for goodput.";
        ]
      rows;
  ]

let r7_tables () =
  let open Iw_service in
  let runs =
    deg_runs
      ~kinds:Plan.[ Machine_brownout ]
      ~with_cfg:(fun on ->
        {
          (deg_cfg ()) with
          Fleet.fc_policy = Dispatch.Wjsq;
          fc_bw_wjsq = on;
        })
  in
  let rows =
    List.map
      (fun (rate, on, (r : Fleet.report), c) ->
        let g id = Iw_obs.Counter.get c id in
        [
          rate_cell rate;
          onoff on;
          i2 r.fr_completed;
          i2 (g Iw_obs.Counter.Fault_injected);
          i2 r.fr_brownouts;
          i2 r.fr_retries;
          i2 r.fr_slo_good;
          f2 (s6_p r 99.0);
          deg_burn r;
        ])
      runs
  in
  [
    Table.make ~title:"R7: machine brownouts vs observed-rate wjsq"
      ~headers:
        [
          "fault-rate"; "bw-wjsq"; "completed"; "faults"; "brownouts";
          "retries"; "slo-good"; "p99us"; "burn";
        ]
      ~notes:
        [
          "Machines drop to a third-to-half speed for a drawn interval.";
          "Off: wjsq weights by nominal workers x speed, so the balancer";
          "keeps feeding the slow machine.  On: weights come from a";
          "leaky integrator of observed completions per window, so a";
          "browned-out machine sheds load until it recovers.";
        ]
      rows;
  ]

let r8_tables () =
  let open Iw_service in
  let kinds =
    Plan.[ Worker_hang; Req_corrupt; Machine_brownout; Link_drop ]
  in
  let with_cfg on =
    {
      (deg_cfg ()) with
      Fleet.fc_watchdog = on;
      fc_corrupt_retry = on;
      fc_bw_wjsq = on;
      fc_hedge_frac = (if on then 0.5 else 0.0);
      fc_admit = on;
    }
  in
  let runs = deg_runs ~kinds ~with_cfg in
  let rows =
    List.map
      (fun (rate, on, (r : Fleet.report), c) ->
        let g id = Iw_obs.Counter.get c id in
        [
          rate_cell rate;
          onoff on;
          i2 r.fr_completed;
          i2 r.fr_failed;
          i2 (g Iw_obs.Counter.Fault_injected);
          i2 (r.fr_steals + r.fr_corrupt_retries);
          i2 r.fr_hedges;
          i2 r.fr_admission_shed;
          i2 r.fr_slo_good;
          f2 (s6_p r 99.0);
          deg_burn r;
        ])
      runs
  in
  [
    Table.make ~title:"R8: full chaos vs every recovery at once"
      ~headers:
        [
          "fault-rate"; "recover"; "completed"; "failed"; "faults";
          "steal+reexec"; "hedges"; "sheds"; "slo-good"; "p99us"; "burn";
        ]
      ~notes:
        [
          "Hangs, corruption, brownouts, and link drops together, against";
          "the whole recovery ladder: watchdog stealing, re-execution,";
          "observed-rate balancing, deadline-fraction hedging (budget 10%";
          "of arrivals), and SLO-aware admission control.  Sheds count";
          "against the SLO - graceful degradation flattens the burn";
          "curve by finishing the requests it accepts.";
        ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* N1-N2: the simulated NIC (ISSUE 10).  One knl-like machine (4
   workers, 20us bodies, ~200k rps capacity) behind the front tier,
   with every request landing in the machine's RX descriptor ring and
   every response draining through its TX ring.  N1 sweeps the ITR
   moderation register under Poisson and MMPP arrivals; N2 runs the
   interrupt-vs-poll-vs-hybrid crossover over an offered-rate sweep.
   The power proxy charges what each mode burns that is not packet
   work: empty poll checks, plus interrupt entry/exit cycles. *)

let nic_fleet ~mode ~itr_us ~workload =
  let open Iw_service in
  {
    (Fleet.default ()) with
    Fleet.fc_machines =
      [| { (Fleet.knl_spec ~workers:4 ()) with Fleet.ms_name = "knl0" } |];
    fc_workload = workload;
    fc_gossip_us = 50.0;
    fc_nic = true;
    fc_nic_mode = mode;
    fc_itr_us = itr_us;
  }

let nic_poisson rps = Iw_service.Workload.Poisson { rps; duration_us = 25_000.0 }

(* Two-state MMPP at the same mean rate: 1.6x on / 0.4x off with 2.5ms
   dwells, so bursts are long against any sane ITR gap. *)
let nic_mmpp rps =
  Iw_service.Workload.Bursty
    {
      rps_on = 1.6 *. rps;
      rps_off = 0.4 *. rps;
      mean_on_us = 2_500.0;
      mean_off_us = 2_500.0;
      duration_us = 25_000.0;
    }

(* Cycles a mode burned that were not packet work: empty poll checks
   plus interrupt entry/exit overhead. *)
let nic_power_kc (r : Iw_service.Fleet.report) =
  let costs = Iw_hw.Platform.knl.Iw_hw.Platform.costs in
  let irq_overhead =
    r.fr_nic_irqs
    * (costs.Iw_hw.Platform.interrupt_dispatch
      + costs.Iw_hw.Platform.interrupt_return)
  in
  (r.fr_nic_wasted_cycles + irq_overhead) / 1000

let n1_tables () =
  let open Iw_service in
  let row wname rps itr_us =
    let workload =
      if wname = "poisson" then nic_poisson rps else nic_mmpp rps
    in
    let r =
      Fleet.run (nic_fleet ~mode:Iw_kernel.Nic_driver.Hybrid ~itr_us ~workload)
    in
    [
      wname;
      i2 (int_of_float rps);
      f2 itr_us;
      i2 r.fr_completed;
      i2 r.fr_nic_irqs;
      i2 r.fr_nic_polls;
      i2 r.fr_nic_empty_polls;
      i2 (r.fr_nic_wasted_cycles / 1000);
      f2 (s6_p r 50.0);
      f2 (s6_p r 99.0);
    ]
  in
  let rows =
    List.concat_map
      (fun wname ->
        List.concat_map
          (fun rps -> List.map (row wname rps) [ 0.0; 5.0; 25.0 ])
          [ 100_000.0; 170_000.0 ])
      [ "poisson"; "mmpp" ]
  in
  [
    Table.make ~title:"N1: ITR interrupt moderation vs workload shape"
      ~headers:
        [
          "workload"; "rps"; "itr-us"; "completed"; "irqs"; "polls"; "empty";
          "wasted-kc"; "p50us"; "p99us";
        ]
      ~notes:
        [
          "One knl-like machine (4 workers, 20us bodies) taking every";
          "request through its NIC RX ring, hybrid driver, 25ms runs.";
          "ITR sets the minimum gap between RX interrupts: 0 fires on";
          "every enabled-with-work edge, larger gaps batch frames behind";
          "one interrupt at the price of delivery delay (visible in p50";
          "before p99).  MMPP arrivals (1.6x/0.4x, 2.5ms dwells) make";
          "moderation cheaper: bursts amortize an interrupt anyway, so";
          "the irq count falls faster than the tail grows.";
        ]
      rows;
  ]

let n2_rates = [ 40_000.0; 100_000.0; 160_000.0; 190_000.0 ]

let n2_tables () =
  let open Iw_service in
  let row mode rps =
    let r =
      Fleet.run (nic_fleet ~mode ~itr_us:0.0 ~workload:(nic_poisson rps))
    in
    [
      Iw_kernel.Nic_driver.mode_name mode;
      i2 (int_of_float rps);
      i2 r.fr_completed;
      i2 r.fr_nic_irqs;
      i2 r.fr_nic_polls;
      i2 r.fr_nic_switches;
      i2 (nic_power_kc r);
      f2 (s6_p r 50.0);
      f2 (s6_p r 99.0);
    ]
  in
  let rows =
    List.concat_map
      (fun mode -> List.map (row mode) n2_rates)
      [ Iw_kernel.Nic_driver.Irq; Iw_kernel.Nic_driver.Poll;
        Iw_kernel.Nic_driver.Hybrid ]
  in
  [
    Table.make ~title:"N2: interrupt vs poll vs hybrid across offered rate"
      ~headers:
        [
          "mode"; "rps"; "completed"; "irqs"; "polls"; "switches"; "power-kc";
          "p50us"; "p99us";
        ]
      ~notes:
        [
          "Same one-machine fleet, ITR 0, Poisson sweep from 0.2 to 0.95";
          "load.  power-kc charges what is not packet work: empty poll";
          "checks plus interrupt entry/exit cycles.  Interrupt mode is";
          "cheap when idle and pays per frame; the poll engine's cost is";
          "flat while its empty checks vanish under load; the hybrid";
          "driver (NAPI) rides interrupts at low rate and switches to";
          "polling exactly when budget-limited drains start leaving";
          "frames behind.";
        ]
      rows;
  ]

(* ================================================================== *)

let all () =
  [
    {
      id = "E1";
      title = "Fig.3 heartbeat rate + SecIV-B overhead";
      paper_claim =
        "NK hits 20us/100us targets steadily; Linux cannot. Overhead 13-22% (Linux) vs <=4.9% (NK).";
      tables = e1_tables;
    };
    {
      id = "E3";
      title = "Fig.4 context switch costs";
      paper_claim =
        "Linux ~5000cy (FP); NK threads ~half; compiler-timed fibers 2.3x/4x lower; <600cy floor.";
      tables = e3_tables;
    };
    {
      id = "E4";
      title = "Fig.6 kernel OpenMP on KNL";
      paper_claim = "RTK ~22% geomean over Linux OpenMP, growing with scale; PIK similar.";
      tables = e4_tables;
    };
    {
      id = "E5";
      title = "SecV-A big-iron repetition";
      paper_claim = "~20% for RTK and PIK on 8-socket/192-core machine.";
      tables = e5_tables;
    };
    {
      id = "E6";
      title = "Fig.7 selective coherence deactivation";
      paper_claim = "~46% average speedup on PBBS; ~53% interconnect energy reduction.";
      tables = e6_tables;
    };
    {
      id = "E7";
      title = "SecIV-A CARAT overhead";
      paper_claim = "<6% geomean overhead on NAS/Mantevo/PARSEC with hoisting/aggregation.";
      tables = e7_tables;
    };
    {
      id = "E8";
      title = "SecIV-D virtine start-up";
      paper_claim = "Start-up overheads as low as ~100us.";
      tables = e8_tables;
    };
    {
      id = "E9";
      title = "SecV-D pipeline interrupts";
      paper_claim = "IDT ~1000 cycles; branch-injected delivery 100-1000x better.";
      tables = e9_tables;
    };
    {
      id = "E10";
      title = "SecIII Nautilus primitives";
      paper_claim =
        "Primitives orders of magnitude faster; app speedups 20-40% over Linux.";
      tables = e10_tables;
    };
    {
      id = "E11";
      title = "SecV-C blended device polling";
      paper_claim = "Polled devices behave as if interrupt-driven; no interrupts occur.";
      tables = e11_tables;
    };
    {
      id = "E12";
      title = "SecIV-C compiler-timing accuracy";
      paper_claim = "Timing calls fire at the desired rate regardless of path.";
      tables = e12_tables;
    };
    {
      id = "E13";
      title = "SecIII steerable device interrupts";
      paper_claim = "Interrupts can largely be avoided on most hardware threads.";
      tables = e13_tables;
    };
    {
      id = "E14";
      title = "SecV-B selective memory ordering";
      paper_claim =
        "x86-TSO fences serialize unrelated writes; selective ordering removes the waste.";
      tables = e14_tables;
    };
    {
      id = "E15";
      title = "SecV-C sub-page transparent far memory";
      paper_claim =
        "Compiler blending evacuates objects (not pages) to remote memory transparently.";
      tables = e15_tables;
    };
    {
      id = "E16";
      title = "SecV-G language-derived coherence hints";
      paper_claim =
        "High-level parallel languages expose the properties lower layers need, by construction.";
      tables = e16_tables;
    };
    {
      id = "A1";
      title = "Ablation: CARAT optimizations";
      paper_claim = "(design-choice study)";
      tables = a1_tables;
    };
    {
      id = "A2";
      title = "Ablation: timing budget sweep";
      paper_claim = "(design-choice study)";
      tables = a2_tables;
    };
    {
      id = "A3";
      title = "Ablation: OpenMP schedules under imbalance";
      paper_claim = "(design-choice study)";
      tables = a3_tables;
    };
    {
      id = "A4";
      title = "Ablation: coherence hint classes";
      paper_claim = "(design-choice study)";
      tables = a4_tables;
    };
    {
      id = "A5";
      title = "Ablation: heartbeat promotion policy";
      paper_claim = "(design-choice study)";
      tables = a5_tables;
    };
    {
      id = "R1";
      title = "Robustness: heartbeat under IPI loss";
      paper_claim = "(fault-injection study; the interweaving argument run in reverse)";
      tables = r1_tables;
    };
    {
      id = "R2";
      title = "Robustness: virtine launch failures";
      paper_claim = "(fault-injection study; the interweaving argument run in reverse)";
      tables = r2_tables;
    };
    {
      id = "R3";
      title = "Robustness: OMP worksharing under dark cores";
      paper_claim = "(fault-injection study; the interweaving argument run in reverse)";
      tables = r3_tables;
    };
    {
      id = "R4";
      title = "Robustness: coherence under spurious shootdowns";
      paper_claim = "(fault-injection study; the interweaving argument run in reverse)";
      tables = r4_tables;
    };
    {
      id = "S1";
      title = "Service plane: throughput vs p99 across OS personalities";
      paper_claim =
        "(service study; kernel specialization read off the latency tail under load)";
      tables = s1_tables;
    };
    {
      id = "S2";
      title = "Service plane: virtine pool sizing under bursty arrivals";
      paper_claim =
        "(service study; SecIV-D start-up elision as a warm-pool knob)";
      tables = s2_tables;
    };
    {
      id = "S3";
      title = "Service plane: dispatch policy shootout";
      paper_claim = "(service study; two choices capture most of jsq's tail win)";
      tables = s3_tables;
    };
    {
      id = "S4";
      title = "Service plane: tail latency vs fault rate";
      paper_claim =
        "(service study; cross-layer recovery converts faults into tail latency)";
      tables = s4_tables;
    };
    {
      id = "S5";
      title = "Service plane: 1M-request scale run, allocation-free hot path";
      paper_claim =
        "(service study; the stack drives realistic traffic volumes only if the hot path sheds allocation)";
      tables = s5_tables;
    };
    {
      id = "S6";
      title = "Fleet: heterogeneous dispatch vs gossip staleness";
      paper_claim =
        "(fleet study; where the dispatch signal travels decides which policy wins)";
      tables = s6_tables;
    };
    {
      id = "S7";
      title = "Fleet: degradation under network faults";
      paper_claim =
        "(fleet study; the interweaving argument run in reverse across the network layer)";
      tables = s7_tables;
    };
    {
      id = "R5";
      title = "Chaos: worker hangs vs the hang watchdog";
      paper_claim =
        "(robustness study; recovery one layer up - the machine watches its own workers)";
      tables = r5_tables;
    };
    {
      id = "R6";
      title = "Chaos: response corruption vs re-execution";
      paper_claim =
        "(robustness study; a wrong answer is a fault the service layer must spend work to mask)";
      tables = r6_tables;
    };
    {
      id = "R7";
      title = "Chaos: machine brownouts vs observed-rate balancing";
      paper_claim =
        "(robustness study; trust what machines do, not what they claim)";
      tables = r7_tables;
    };
    {
      id = "R8";
      title = "Chaos: everything at once vs the full recovery ladder";
      paper_claim =
        "(robustness study; graceful degradation as an end-to-end property of the stack)";
      tables = r8_tables;
    };
    {
      id = "N1";
      title = "NIC: ITR interrupt moderation vs workload shape";
      paper_claim =
        "(SecV-C device study; moderation trades interrupt count against delivery delay)";
      tables = n1_tables;
    };
    {
      id = "N2";
      title = "NIC: interrupt vs poll vs hybrid crossover";
      paper_claim =
        "(SecV-C compiler-injected polling; the hybrid driver tracks the better mode at each rate)";
      tables = n2_tables;
    };
  ]

let find id =
  match List.find_opt (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id) (all ()) with
  | Some e -> e
  | None -> raise Not_found

let run_to_string e =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "[%s] %s\n  paper: %s\n\n" e.id e.title e.paper_claim);
  List.iter
    (fun t -> Buffer.add_string buf (Table.render t ^ "\n"))
    (e.tables ());
  Buffer.contents buf

(* Run one experiment under a collecting ambient context and return
   its rendered output plus the machine-wide counter totals: every
   component the run creates inherits the scoped trace and registers
   its fresh counter set, so the totals cover all kernels/runtimes the
   experiment booted.  [trace] defaults to the null sink (counters
   still count), so this is also how golden snapshots are captured. *)
type alloc = { alloc_minor_words : float }

let run_with_counters ?trace e =
  let obs = Iw_obs.Obs.create ?trace ~collect:true () in
  let w0 = Gc.minor_words () in
  let out = Iw_obs.Obs.with_ambient obs (fun () -> run_to_string e) in
  let alloc = { alloc_minor_words = Gc.minor_words () -. w0 } in
  (out, Iw_obs.Counter.to_list (Iw_obs.Obs.total_counters obs), alloc)
