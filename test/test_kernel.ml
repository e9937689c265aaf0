(* Integration tests for the scheduler engine, fibers, and the task
   framework, under both OS personalities. *)

open Iw_engine
open Iw_hw
open Iw_kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let plat = Platform.small
let nk () = Nautilus.boot plat
let lx () = Sched.boot ~personality:(Os.linux plat) plat

(* ------------------------------------------------------------------ *)
(* Basic thread lifecycle *)

let test_single_thread_runs () =
  let k = nk () in
  let ran = ref false in
  ignore
    (Sched.spawn k (fun () ->
         Api.work 10_000;
         ran := true));
  Sched.run k;
  check_bool "body ran" true !ran;
  check_bool "time advanced" true (Sched.now k >= 10_000)

let test_work_is_accounted () =
  let k = nk () in
  ignore (Sched.spawn k (fun () -> Api.work 50_000));
  Sched.run k;
  check_int "work cycles" 50_000 (Sched.total_work_cycles k)

let test_spawn_join () =
  let k = nk () in
  let order = ref [] in
  ignore
    (Sched.spawn k (fun () ->
         let child =
           Api.spawn ~name:"child" (fun () ->
               Api.work 5000;
               order := "child" :: !order)
         in
         Api.join child;
         order := "parent" :: !order));
  Sched.run k;
  Alcotest.(check (list string)) "join ordering" [ "child"; "parent" ]
    (List.rev !order)

let test_join_dead_thread_immediate () =
  let k = nk () in
  let ok = ref false in
  ignore
    (Sched.spawn k (fun () ->
         let child = Api.spawn (fun () -> Api.work 10) in
         Api.sleep 1_000_000;
         (* Child long dead. *)
         Api.join child;
         ok := true));
  Sched.run k;
  check_bool "join returned" true !ok

let test_threads_on_distinct_cpus_overlap () =
  let k = nk () in
  let span = 1_000_000 in
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 } (fun () ->
         Api.work span));
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 1 } (fun () ->
         Api.work span));
  Sched.run k;
  (* Parallel: finish far before 2x serial time. *)
  check_bool "parallel execution" true (Sched.now k < (2 * span) + (span / 2))

let test_two_threads_share_one_cpu () =
  let k = nk () in
  let span = 3_000_000 in
  let done_count = ref 0 in
  for _ = 1 to 2 do
    ignore
      (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 }
         (fun () ->
           Api.work span;
           incr done_count))
  done;
  Sched.run k;
  check_int "both finished" 2 !done_count;
  (* Serialized on one core: at least 2x the span. *)
  check_bool "serialized" true (Sched.now k >= 2 * span)

let test_preemptive_timeslicing () =
  (* With a 1ms quantum and two CPU-bound threads on one core, both
     make progress long before either finishes. *)
  let k = Sched.boot ~personality:(Os.nautilus plat) ~quantum_us:100.0 plat in
  let q = Platform.cycles_of_us plat 100.0 in
  let progress = Array.make 2 0 in
  for i = 0 to 1 do
    ignore
      (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 }
         (fun () ->
           for _ = 1 to 100 do
             Api.work (q / 10);
             progress.(i) <- progress.(i) + 1
           done))
  done;
  (* Run only long enough for ~20 quanta. *)
  Sched.run_until k (q * 20);
  check_bool "thread 0 progressed" true (progress.(0) > 10);
  check_bool "thread 1 progressed" true (progress.(1) > 10)

let test_rt_beats_normal () =
  let k = nk () in
  let order = ref [] in
  ignore
    (Sched.spawn k (fun () ->
         (* Occupy CPU 0 with the spawner; queue both children there. *)
         let mk name rt =
           Api.spawn ~name ~cpu:0 ~rt (fun () ->
               Api.work 1000;
               order := name :: !order)
         in
         let n = mk "normal" false in
         let r = mk "rt" true in
         Api.work 5000;
         Api.join n;
         Api.join r));
  Sched.run k;
  Alcotest.(check (list string)) "rt first" [ "rt"; "normal" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Synchronization *)

let test_mutex_mutual_exclusion () =
  let k = nk () in
  let m = Sched.mutex () in
  let inside = ref 0 and max_inside = ref 0 and iters = ref 0 in
  let body () =
    for _ = 1 to 20 do
      Api.with_lock m (fun () ->
          incr inside;
          if !inside > !max_inside then max_inside := !inside;
          Api.work 500;
          incr iters;
          decr inside)
    done
  in
  for i = 0 to 2 do
    ignore
      (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some i } body)
  done;
  Sched.run k;
  check_int "all iterations" 60 !iters;
  check_int "never two inside" 1 !max_inside

let test_unlock_by_non_owner_rejected () =
  let k = nk () in
  let m = Sched.mutex () in
  ignore (Sched.spawn k (fun () -> Api.unlock m));
  check_bool "raises" true
    (try
       Sched.run k;
       false
     with Invalid_argument _ -> true)

(* A kernel thread has no yield: [Coro.yield] is for the fibers a
   thread runs itself (see Fiber). *)
let test_yield_refused () =
  let k = nk () in
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_name = "spinner" }
       (fun () ->
         Api.work 100;
         Coro.yield ()));
  Alcotest.check_raises "names the thread"
    (Invalid_argument "Sched: Coro.yield from thread 0 (spinner)") (fun () ->
      Sched.run k)

let test_semaphore_counting () =
  let k = nk () in
  let sem = Sched.semaphore ~init:2 in
  let in_section = ref 0 and max_in = ref 0 in
  for i = 0 to 3 do
    ignore
      (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some i }
         (fun () ->
           Api.sem_wait sem;
           incr in_section;
           if !in_section > !max_in then max_in := !in_section;
           Api.work 10_000;
           decr in_section;
           Api.sem_post sem))
  done;
  Sched.run k;
  check_bool "at most 2 inside" true (!max_in <= 2);
  check_bool "some concurrency" true (!max_in >= 1)

let test_sleep_duration () =
  let k = nk () in
  let woke_at = ref 0 in
  ignore
    (Sched.spawn k (fun () ->
         Api.sleep 100_000;
         woke_at := Api.now ()));
  Sched.run k;
  check_bool "slept long enough" true (!woke_at >= 100_000);
  check_bool "no gross oversleep" true (!woke_at < 200_000)

(* ------------------------------------------------------------------ *)
(* Coroutine and flat threads *)

(* One program, written once as coroutine threads through [Api] and
   once as hand-written flat threads through [Sched.flat_*].  CPU 0
   blocks on [ping] until CPU 1 posts it, then takes [spare] without
   blocking; a 20 us quantum makes the ticks cut both threads' grants
   short. *)
type op =
  | Work of int
  | Overhead of int
  | Sleep of int
  | Wait of Sched.semaphore
  | Post of Sched.semaphore

let twin_program () =
  let ping = Sched.semaphore ~init:0 and spare = Sched.semaphore ~init:1 in
  [|
    [ Work 30_000; Overhead 4_000; Wait ping; Wait spare; Sleep 20_000;
      Work 12_000 ];
    [ Work 70_000; Overhead 3_000; Post ping; Sleep 15_000; Work 25_000 ];
  |]

let twin_coroutine ops () =
  List.iter
    (function
      | Work n -> Api.work n
      | Overhead n -> Api.overhead n
      | Sleep dt -> Api.sleep dt
      | Wait s -> Api.sem_wait s
      | Post s -> Api.sem_post s)
    ops

let twin_flat k spec ops =
  let fl = Sched.spawn_flat k ~spec () in
  let rest = ref ops in
  Sched.set_flat_step fl (fun () ->
      match !rest with
      | [] -> Sched.flat_exit k fl
      | op :: tl -> (
          rest := tl;
          match op with
          | Work n -> Sched.flat_work k fl n
          | Overhead n -> Sched.flat_overhead k fl n
          | Sleep dt -> Sched.flat_sleep k fl dt
          | Wait s -> Sched.flat_sem_wait k fl s
          | Post s -> Sched.flat_sem_post k fl s))

let twin_run personality ~flat =
  let k = Sched.boot ~personality ~quantum_us:20.0 plat in
  Array.iteri
    (fun cpu ops ->
      let spec = { Sched.default_spec with sp_cpu = Some cpu } in
      if flat then twin_flat k spec ops
      else ignore (Sched.spawn k ~spec (twin_coroutine ops)))
    (twin_program ());
  Sched.run k;
  let per_cpu f = List.init (Sched.cpu_count k) (fun i -> f (Sched.cpu k i)) in
  ( Sched.now k,
    Iw_obs.Counter.to_list (Sched.counters k),
    (per_cpu Cpu.work_cycles, per_cpu Cpu.overhead_cycles, per_cpu Cpu.irq_cycles)
  )

let test_flat_twin personality () =
  let now_c, counters_c, (work_c, over_c, irq_c) =
    twin_run (personality plat) ~flat:false
  in
  let now_f, counters_f, (work_f, over_f, irq_f) =
    twin_run (personality plat) ~flat:true
  in
  let ints = Alcotest.(list int) in
  check_int "end time" now_c now_f;
  Alcotest.(check (list (pair string int))) "counters" counters_c counters_f;
  Alcotest.check ints "work cycles" work_c work_f;
  Alcotest.check ints "overhead cycles" over_c over_f;
  Alcotest.check ints "irq cycles" irq_c irq_f;
  check_int "all work done" 137_000 (List.fold_left ( + ) 0 work_c);
  check_bool "ticks fired on both cpus" true
    (List.nth irq_c 0 > 0 && List.nth irq_c 1 > 0)

(* Minor words one coroutine suspension allocates: the marginal cost of
   [n] more calls of [op], from one thread on a 1-CPU Nautilus kernel
   run [n] and then [2n] times.  The quantum is longer than either run,
   so no tick adds words.  [Gc.minor_words] counts this domain only. *)
let words_per_suspension op =
  let words n =
    let w0 = Gc.minor_words () in
    let k = Nautilus.boot ~quantum_us:1e6 (Platform.with_cores plat 1) in
    let sem = Sched.semaphore ~init:0 in
    ignore
      (Sched.spawn k (fun () ->
           for _ = 1 to n do
             op sem
           done));
    Sched.run k;
    Gc.minor_words () -. w0
  in
  let n = 20_000 in
  let w1 = words n in
  (words (2 * n) -. w1) /. float_of_int n

let test_suspension_words () =
  let cap name limit op =
    let w = words_per_suspension op in
    check_bool (Printf.sprintf "%s: %.2f words <= %d" name w limit) true
      (w <= float_of_int limit)
  in
  cap "Api.work" 21 (fun _ -> Api.work 10);
  cap "Api.sem_post" 24 Api.sem_post

(* ------------------------------------------------------------------ *)
(* Personality differences *)

let measure_spawn_join_cost personality =
  let k = Sched.boot ~personality plat in
  let elapsed = ref 0 in
  ignore
    (Sched.spawn k (fun () ->
         let t0 = Api.now () in
         for _ = 1 to 10 do
           let c = Api.spawn ~cpu:1 (fun () -> Api.work 100) in
           Api.join c
         done;
         elapsed := Api.now () - t0));
  Sched.run k;
  !elapsed

let test_nk_threads_cheaper_than_linux () =
  let nk_cost = measure_spawn_join_cost (Os.nautilus plat) in
  let lx_cost = measure_spawn_join_cost (Os.linux plat) in
  check_bool
    (Printf.sprintf "nk %d < linux %d" nk_cost lx_cost)
    true
    (nk_cost * 3 < lx_cost)

let test_parallel_helper () =
  let k = nk () in
  let hits = Array.make 4 false in
  ignore (Sched.spawn k (fun () -> Api.parallel 4 (fun i -> hits.(i) <- true)));
  Sched.run k;
  Array.iter (fun h -> check_bool "every index ran" true h) hits

let test_deterministic_replay () =
  let run_once () =
    let k = Sched.boot ~personality:(Os.linux plat) ~seed:123 plat in
    ignore
      (Sched.spawn k (fun () ->
           Api.parallel 4 (fun _ ->
               for _ = 1 to 50 do
                 Api.work (100 + Api.rand 1000)
               done)));
    Sched.run k;
    Sched.now k
  in
  check_int "same seed, same end time" (run_once ()) (run_once ())

(* ------------------------------------------------------------------ *)
(* Nemo IPI events *)

let test_nemo_signal_latency () =
  let k = nk () in
  let c = Platform.(plat.costs) in
  let sent = ref 0 and received = ref 0 in
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 1 } (fun () ->
         (* Keep CPU 1 busy so the IPI preempts real work. *)
         Api.work 10_000_000));
  ignore
    (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 } (fun () ->
         Api.work 1000;
         sent := Api.now ();
         Nautilus.Nemo.signal k ~target_cpu:1 ~handler:(fun () ->
             received := Sched.now k)));
  Sched.run k;
  let latency = !received - !sent in
  check_bool "delivered" true (!received > 0);
  check_bool
    (Printf.sprintf "latency %d ~ ipi+dispatch" latency)
    true
    (latency >= c.ipi_latency
    && latency <= c.ipi_send + c.ipi_latency + c.interrupt_dispatch + 500)

(* ------------------------------------------------------------------ *)
(* Fibers *)

let test_fibers_cooperative_interleave () =
  let k = nk () in
  let log = ref [] in
  ignore
    (Sched.spawn k (fun () ->
         let fs = Fiber.create plat ~mode:Fiber.Cooperative ~fp:false in
         let mk tag =
           ignore
             (Fiber.spawn fs (fun () ->
                  for i = 1 to 3 do
                    log := Printf.sprintf "%s%d" tag i :: !log;
                    Coro.consume 100;
                    Fiber.yield ()
                  done))
         in
         mk "a";
         mk "b";
         Fiber.run fs));
  Sched.run k;
  Alcotest.(check (list string))
    "round-robin interleaving"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

let test_fibers_compiler_timed_preemption () =
  let k = nk () in
  let fs_out = ref None in
  ignore
    (Sched.spawn k (fun () ->
         let fs =
           Fiber.create plat
             ~mode:
               (Fiber.Compiler_timed
                  { period = 5_000; check_interval = 500; check_cost = 30 })
             ~fp:false
         in
         fs_out := Some fs;
         (* Two fibers that never yield voluntarily. *)
         for _ = 1 to 2 do
           ignore (Fiber.spawn fs (fun () -> Coro.consume 100_000))
         done;
         Fiber.run fs));
  Sched.run k;
  let fs = Option.get !fs_out in
  check_bool "compiler timing forced switches" true (Fiber.switches fs > 5);
  check_bool "timing checks happened" true (Fiber.timing_checks fs > 100)

let test_fiber_switch_cheaper_than_thread_switch () =
  let c = Platform.(plat.costs) in
  let fs = Fiber.create plat ~mode:Fiber.Cooperative ~fp:false in
  let thread_switch =
    c.interrupt_dispatch + c.interrupt_return + c.ctx_save_int
    + c.ctx_restore_int
  in
  check_bool "fibers cheaper" true (Fiber.switch_cost fs < thread_switch)

let test_fiber_requests_pass_through () =
  let k = nk () in
  let saw_time = ref (-1) in
  ignore
    (Sched.spawn k (fun () ->
         let fs = Fiber.create plat ~mode:Fiber.Cooperative ~fp:false in
         ignore
           (Fiber.spawn fs (fun () ->
                Coro.consume 1000;
                saw_time := Api.now ()));
         Fiber.run fs));
  Sched.run k;
  check_bool "fiber saw kernel time" true (!saw_time >= 1000)

(* ------------------------------------------------------------------ *)
(* Device interrupt steering *)

let test_device_irq_spread_hits_all_cpus () =
  let k = nk () in
  let dev = Device_irq.start k ~rate_hz:1e6 Device_irq.Spread in
  ignore
    (Sched.spawn k (fun () ->
         Api.work 100_000;
         Device_irq.stop dev));
  Sched.run k;
  let per_cpu = Device_irq.per_cpu dev in
  Array.iter (fun n -> check_bool "every cpu hit" true (n > 0)) per_cpu

let test_device_irq_steered_hits_one () =
  let k = nk () in
  let dev = Device_irq.start k ~rate_hz:1e6 (Device_irq.Steered 2) in
  ignore
    (Sched.spawn k (fun () ->
         Api.work 100_000;
         Device_irq.stop dev));
  Sched.run k;
  let per_cpu = Device_irq.per_cpu dev in
  Array.iteri
    (fun i n ->
      if i = 2 then check_bool "target hit" true (n > 0)
      else check_int "others untouched" 0 n)
    per_cpu

let test_device_irq_bad_args_rejected () =
  let k = nk () in
  check_bool "bad rate" true
    (try
       ignore (Device_irq.start k ~rate_hz:0.0 Device_irq.Spread);
       false
     with Invalid_argument _ -> true);
  check_bool "bad steering target" true
    (try
       ignore (Device_irq.start k ~rate_hz:1e5 (Device_irq.Steered 99));
       false
     with Invalid_argument _ -> true)

let test_device_irq_slows_victim () =
  let elapsed steer =
    let k = nk () in
    (* Keep the interrupt duty cycle well under 100%: dispatch +
       handler + return must fit the period or the vector livelocks
       the core (a real failure mode, but not this test's point). *)
    let dev =
      Device_irq.start k ~rate_hz:100_000.0 ~handler_cost:3_000
        (Device_irq.Steered steer)
    in
    let fin = ref 0 in
    ignore
      (Sched.spawn k ~spec:{ Sched.default_spec with sp_cpu = Some 0 }
         (fun () ->
           Api.work 1_000_000;
           fin := Api.now ();
           Device_irq.stop dev));
    Sched.run k;
    !fin
  in
  check_bool "irqs on my cpu hurt; steered away they do not" true
    (elapsed 0 > elapsed 1 + 50_000)

(* ------------------------------------------------------------------ *)
(* Task framework *)

let test_task_framework_runs_all () =
  let k = nk () in
  let count = ref 0 in
  ignore
    (Sched.spawn k (fun () ->
         let tf = Task.create k () in
         let handles =
           List.init 20 (fun _ ->
               Task.submit tf (fun () ->
                   Api.work 1000;
                   incr count))
         in
         List.iter Task.wait handles;
         Task.shutdown tf));
  Sched.run k;
  check_int "all tasks ran" 20 !count

let test_task_small_tasks_inline () =
  let k = nk () in
  ignore
    (Sched.spawn k (fun () ->
         let tf = Task.create k ~inline_threshold:2000 () in
         let h1 = Task.submit ~size_hint:100 tf (fun () -> Api.work 100) in
         let h2 = Task.submit ~size_hint:100_000 tf (fun () -> Api.work 100) in
         Task.wait h1;
         Task.wait h2;
         check_int "one inlined" 1 (Task.inlined tf);
         check_int "one queued" 1 (Task.executed tf);
         Task.shutdown tf));
  Sched.run k

let prop_work_conservation =
  QCheck.Test.make ~name:"kernel conserves requested work cycles" ~count:25
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(1 -- 6) (int_range 1_000 200_000)))
    (fun (ncpu, works) ->
      let plat = Platform.with_cores Platform.small ncpu in
      let k = Sched.boot ~seed:7 ~personality:(Os.nautilus plat) plat in
      List.iteri
        (fun i w ->
          ignore
            (Sched.spawn k
               ~spec:{ Sched.default_spec with sp_cpu = Some (i mod ncpu) }
               (fun () -> Api.work w)))
        works;
      Sched.run k;
      Sched.total_work_cycles k = List.fold_left ( + ) 0 works)

let prop_deterministic_replay =
  QCheck.Test.make ~name:"same seed, same schedule" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let once () =
        let k = Sched.boot ~seed ~personality:(Os.linux plat) plat in
        ignore
          (Sched.spawn k (fun () ->
               Api.parallel 3 (fun _ ->
                   for _ = 1 to 20 do
                     Api.work (500 + Api.rand 2_000)
                   done)));
        Sched.run k;
        (Sched.now k, Sched.total_overhead_cycles k)
      in
      once () = once ())

let () =
  ignore lx;
  Alcotest.run "kernel"
    [
      ( "threads",
        [
          Alcotest.test_case "single thread" `Quick test_single_thread_runs;
          Alcotest.test_case "work accounting" `Quick test_work_is_accounted;
          Alcotest.test_case "spawn/join" `Quick test_spawn_join;
          Alcotest.test_case "join dead" `Quick test_join_dead_thread_immediate;
          Alcotest.test_case "parallel cpus overlap" `Quick
            test_threads_on_distinct_cpus_overlap;
          Alcotest.test_case "one cpu serializes" `Quick
            test_two_threads_share_one_cpu;
          Alcotest.test_case "timeslicing" `Quick test_preemptive_timeslicing;
          Alcotest.test_case "rt priority" `Quick test_rt_beats_normal;
          Alcotest.test_case "words per suspension" `Quick
            test_suspension_words;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex exclusion" `Quick
            test_mutex_mutual_exclusion;
          Alcotest.test_case "unlock non-owner" `Quick
            test_unlock_by_non_owner_rejected;
          Alcotest.test_case "yield refused" `Quick test_yield_refused;
          Alcotest.test_case "semaphore" `Quick test_semaphore_counting;
          Alcotest.test_case "sleep" `Quick test_sleep_duration;
        ] );
      ( "flat-twin",
        [
          Alcotest.test_case "nautilus" `Quick (test_flat_twin Os.nautilus);
          Alcotest.test_case "linux" `Quick (test_flat_twin Os.linux);
        ] );
      ( "personalities",
        [
          Alcotest.test_case "nk threads cheaper" `Quick
            test_nk_threads_cheaper_than_linux;
          Alcotest.test_case "parallel helper" `Quick test_parallel_helper;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
          Alcotest.test_case "nemo ipi latency" `Quick test_nemo_signal_latency;
        ] );
      ( "fibers",
        [
          Alcotest.test_case "cooperative interleave" `Quick
            test_fibers_cooperative_interleave;
          Alcotest.test_case "compiler-timed preemption" `Quick
            test_fibers_compiler_timed_preemption;
          Alcotest.test_case "switch cheaper than threads" `Quick
            test_fiber_switch_cheaper_than_thread_switch;
          Alcotest.test_case "requests pass through" `Quick
            test_fiber_requests_pass_through;
        ] );
      ( "tasks",
        [
          Alcotest.test_case "runs all" `Quick test_task_framework_runs_all;
          Alcotest.test_case "inline small" `Quick test_task_small_tasks_inline;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_work_conservation;
          QCheck_alcotest.to_alcotest prop_deterministic_replay;
        ] );
      ( "device-irq",
        [
          Alcotest.test_case "spread hits all" `Quick
            test_device_irq_spread_hits_all_cpus;
          Alcotest.test_case "steered hits one" `Quick
            test_device_irq_steered_hits_one;
          Alcotest.test_case "victim slowed" `Quick test_device_irq_slows_victim;
          Alcotest.test_case "bad args rejected" `Quick
            test_device_irq_bad_args_rejected;
        ] );
    ]
