(* Tests for the hardware layer: CPU grants/interrupts, LAPIC, IPI,
   TLB, pipeline interrupts. *)

open Iw_engine
open Iw_hw

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let plat = Platform.small

(* A core that charges [dispatch] and [return_cost] per interrupt and
   ignores what a preemption leaves owed. *)
let core s ~id ~dispatch ~return_cost =
  Cpu.create s ~id ~interrupt_dispatch:dispatch ~interrupt_return:return_cost
    ~on_preempt:ignore

(* A core with the platform's interrupt costs. *)
let plat_core s ~id =
  core s ~id ~dispatch:plat.costs.interrupt_dispatch
    ~return_cost:plat.costs.interrupt_return

(* ------------------------------------------------------------------ *)
(* Cpu *)

let test_grant_completes () =
  let s = Sim.create () in
  let cpu = plat_core s ~id:0 in
  let completed_at = ref (-1) in
  Cpu.grant cpu ~cycles:100 ~kind:Cpu.Work ~uninterruptible:false
    ~on_complete:(fun () -> completed_at := Sim.now s);
  check_bool "busy during grant" true (Cpu.busy cpu);
  Sim.run s;
  check_int "completes on time" 100 !completed_at;
  check_int "work accounted" 100 (Cpu.work_cycles cpu);
  check_bool "idle after" false (Cpu.busy cpu)

let test_grant_zero_cycles_async () =
  let s = Sim.create () in
  let cpu = plat_core s ~id:0 in
  let done_ = ref false in
  Cpu.grant cpu ~cycles:0 ~kind:Cpu.Work ~uninterruptible:false
    ~on_complete:(fun () -> done_ := true);
  check_bool "not synchronous" false !done_;
  Sim.run s;
  check_bool "completed via event" true !done_

let test_grant_while_busy_rejected () =
  let s = Sim.create () in
  let cpu = plat_core s ~id:0 in
  Cpu.grant cpu ~cycles:100 ~kind:Cpu.Work ~uninterruptible:false
    ~on_complete:(fun () -> ());
  Alcotest.check_raises "busy" (Invalid_argument "Cpu.grant: core 0 is busy")
    (fun () ->
      Cpu.grant cpu ~cycles:10 ~kind:Cpu.Work ~uninterruptible:false
        ~on_complete:(fun () -> ()))

let test_interrupt_preempts_grant () =
  let s = Sim.create () in
  let cpu = core s ~id:0 ~dispatch:50 ~return_cost:10 in
  let grant_completed = ref false in
  let seen_remaining = ref (-1) in
  let after_at = ref (-1) in
  Cpu.grant cpu ~cycles:1000 ~kind:Cpu.Work ~uninterruptible:false
    ~on_complete:(fun () -> grant_completed := true);
  Sim.schedule_unit s ~at:400 (fun () ->
      Cpu.interrupt cpu
        ~handler:(fun ~preempted ->
          if preempted < 0 then Alcotest.fail "expected preemption"
          else seen_remaining := preempted;
          20)
        ~after:(fun () -> after_at := Sim.now s));
  Sim.run s;
  check_bool "preempted grant never completes" false !grant_completed;
  check_int "remaining = total - consumed" 600 !seen_remaining;
  (* 400 (arrival) + 50 dispatch + 20 handler + 10 return. *)
  check_int "after runs when irq done" 480 !after_at;
  check_int "irq cycles accounted" 80 (Cpu.irq_cycles cpu);
  check_int "partial work accounted" 400 (Cpu.work_cycles cpu)

let test_interrupt_on_idle_cpu () =
  let s = Sim.create () in
  let cpu = core s ~id:0 ~dispatch:30 ~return_cost:5 in
  let got = ref min_int in
  Cpu.interrupt cpu
    ~handler:(fun ~preempted ->
      got := preempted;
      0)
    ~after:(fun () -> ());
  Sim.run s;
  if !got <> -1 then Alcotest.fail "expected delivery with no preemption"

let test_uninterruptible_grant_defers_irq () =
  let s = Sim.create () in
  let cpu = core s ~id:0 ~dispatch:10 ~return_cost:0 in
  let handler_at = ref (-1) in
  Cpu.grant cpu ~cycles:100 ~kind:Cpu.Work ~uninterruptible:true
    ~on_complete:(fun () -> ());
  Sim.schedule_unit s ~at:20 (fun () ->
      Cpu.interrupt cpu
        ~handler:(fun ~preempted ->
          if preempted >= 0 then
            Alcotest.fail "must not preempt uninterruptible";
          handler_at := Sim.now s;
          0)
        ~after:(fun () -> ()));
  Sim.run s;
  (* Delivery waits for grant end at t=100, then 10 dispatch. *)
  check_int "deferred to grant end" 110 !handler_at

let test_interrupts_queue_fifo () =
  let s = Sim.create () in
  let cpu = core s ~id:0 ~dispatch:10 ~return_cost:0 in
  let order = ref [] in
  let inject tag =
    Cpu.interrupt cpu
      ~handler:(fun ~preempted:_ ->
        order := tag :: !order;
        100)
      ~after:(fun () -> ())
  in
  Sim.schedule_unit s ~at:0 (fun () -> inject "first");
  Sim.schedule_unit s ~at:5 (fun () -> inject "second");
  Sim.schedule_unit s ~at:6 (fun () -> inject "third");
  Sim.run s;
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ]
    (List.rev !order)

let test_resume_after_preemption () =
  (* The kernel pattern: the core reports what a preemption leaves
     owed, and the remainder is re-granted after the interrupt. *)
  let s = Sim.create () in
  let remaining = ref 0 in
  let cpu =
    Cpu.create s ~id:0 ~interrupt_dispatch:100 ~interrupt_return:0
      ~on_preempt:(fun r -> remaining := r)
  in
  let finished_at = ref (-1) in
  let give n =
    Cpu.grant cpu ~cycles:n ~kind:Cpu.Work ~uninterruptible:false
      ~on_complete:(fun () -> finished_at := Sim.now s)
  in
  give 1000;
  Sim.schedule_unit s ~at:300 (fun () ->
      Cpu.interrupt cpu
        ~handler:(fun ~preempted ->
          check_int "the hook ran first, with the same remainder" preempted
            !remaining;
          0)
        ~after:(fun () -> give !remaining));
  Sim.run s;
  (* 300 consumed + 100 irq + 700 remaining = done at 1100. *)
  check_int "resumed to completion" 1100 !finished_at;
  check_int "full work accounted" 1000 (Cpu.work_cycles cpu)

(* A negative interrupt cost (which `sweep --values` can ask for) is
   refused where the core is built, naming the field. *)
let test_negative_cost_rejected () =
  let s = Sim.create () in
  Alcotest.check_raises "dispatch"
    (Invalid_argument "Cpu.create: interrupt_dispatch must be >= 0")
    (fun () -> ignore (core s ~id:0 ~dispatch:(-1) ~return_cost:0));
  Alcotest.check_raises "return"
    (Invalid_argument "Cpu.create: interrupt_return must be >= 0")
    (fun () -> ignore (core s ~id:0 ~dispatch:0 ~return_cost:(-1)))

(* ------------------------------------------------------------------ *)
(* Lapic *)

let test_lapic_periodic_and_stop () =
  let s = Sim.create () in
  let cpu = plat_core s ~id:0 in
  let lapic = Lapic.create s cpu in
  let count = ref 0 in
  Lapic.periodic lapic ~period:100
    ~handler:(fun ~preempted:_ ->
      incr count;
      0)
    ~after:(fun () -> ())
    ();
  Sim.schedule_unit s ~at:550 (fun () -> Lapic.stop lapic);
  Sim.run s;
  check_int "ticks until stopped" 5 !count

(* ------------------------------------------------------------------ *)
(* Ipi *)

let test_ipi_latency () =
  let s = Sim.create () in
  let target = plat_core s ~id:1 in
  let at = ref (-1) in
  Ipi.send
    (Ipi.delivery s plat ~target
       ~handler:(fun ~preempted:_ ->
         at := Sim.now s;
         0)
       ~after:(fun () -> ()));
  Sim.run s;
  check_int "latency + dispatch"
    (plat.costs.ipi_latency + plat.costs.interrupt_dispatch)
    !at

(* A broadcast is one send per target, issued at the same instant: every
   target takes its interrupt after the same fabric latency. *)
let test_ipi_broadcast_reaches_all () =
  let s = Sim.create () in
  let hit = Array.make 3 (-1) in
  for cid = 0 to 2 do
    Ipi.send
      (Ipi.delivery s plat ~target:(plat_core s ~id:cid)
         ~handler:(fun ~preempted:_ ->
           hit.(cid) <- Sim.now s;
           0)
         ~after:(fun () -> ()))
  done;
  Sim.run s;
  Array.iter
    (fun at ->
      check_int "same arrival everywhere"
        (plat.costs.ipi_latency + plat.costs.interrupt_dispatch)
        at)
    hit

(* ------------------------------------------------------------------ *)
(* Tlb *)

let test_tlb_identity_large_no_misses () =
  let tlb = Tlb.create plat ~page_kb:plat.large_page_size_kb in
  (* 64 entries * 2 MB = 128 MB reach: the machine's memory fits. *)
  let profile =
    { Tlb.footprint_kb = 64 * 1024; accesses = 1_000_000; locality = 0.0 }
  in
  check_int "no misses under identity-large" 0 (Tlb.misses tlb profile)

let test_tlb_demand_paged_misses () =
  let tlb = Tlb.create plat ~page_kb:plat.page_size_kb in
  (* Reach is 64 * 4 KB = 256 KB; a 1 MB streaming footprint misses. *)
  let profile =
    { Tlb.footprint_kb = 1024; accesses = 100_000; locality = 0.0 }
  in
  check_bool "misses occur" true (Tlb.misses tlb profile > 0)

let test_tlb_locality_reduces_misses () =
  let tlb = Tlb.create plat ~page_kb:plat.page_size_kb in
  let base = { Tlb.footprint_kb = 2048; accesses = 1_000_000; locality = 0.0 } in
  let local = { base with locality = 0.9 } in
  check_bool "locality helps" true (Tlb.misses tlb local < Tlb.misses tlb base)

(* ------------------------------------------------------------------ *)
(* Pipeline interrupts *)

let test_pipeline_speedup_range () =
  let sp = Pipeline_interrupt.speedup plat in
  (* §V-D claims 100-1000x. *)
  check_bool "within claimed band" true (sp >= 50.0 && sp <= 1000.0)

let test_pipeline_cheaper_than_idt () =
  let idt = Pipeline_interrupt.deliver plat Pipeline_interrupt.Idt in
  let br = Pipeline_interrupt.deliver plat Pipeline_interrupt.Branch_injected in
  check_bool "ordering" true (br.total_cycles < idt.total_cycles);
  check_int "idt matches cost table"
    (plat.costs.interrupt_dispatch + plat.costs.interrupt_return)
    idt.total_cycles

let test_riscv_platform_sane () =
  let r = Platform.riscv_openpiton in
  check_bool "cheap trap path vs x64" true
    (r.costs.interrupt_dispatch < Platform.knl.costs.interrupt_dispatch);
  check_bool "pipeline-interrupt still wins there" true
    (Pipeline_interrupt.speedup r > 20.0)

let test_pipeline_sweep_monotone () =
  let rows = Pipeline_interrupt.sweep plat ~rate_hz:[ 1e3; 1e4; 1e5 ] in
  List.iter
    (fun (_, idt_frac, br_frac) ->
      check_bool "branch overhead below idt" true (br_frac < idt_frac))
    rows

let () =
  Alcotest.run "hw"
    [
      ( "cpu",
        [
          Alcotest.test_case "grant completes" `Quick test_grant_completes;
          Alcotest.test_case "zero-cycle grant async" `Quick
            test_grant_zero_cycles_async;
          Alcotest.test_case "grant while busy rejected" `Quick
            test_grant_while_busy_rejected;
          Alcotest.test_case "interrupt preempts" `Quick
            test_interrupt_preempts_grant;
          Alcotest.test_case "interrupt on idle" `Quick
            test_interrupt_on_idle_cpu;
          Alcotest.test_case "uninterruptible defers irq" `Quick
            test_uninterruptible_grant_defers_irq;
          Alcotest.test_case "irq queue fifo" `Quick test_interrupts_queue_fifo;
          Alcotest.test_case "resume after preemption" `Quick
            test_resume_after_preemption;
          Alcotest.test_case "negative cost rejected" `Quick
            test_negative_cost_rejected;
        ] );
      ( "lapic",
        [
          Alcotest.test_case "periodic + stop" `Quick
            test_lapic_periodic_and_stop;
        ] );
      ( "ipi",
        [
          Alcotest.test_case "latency" `Quick test_ipi_latency;
          Alcotest.test_case "broadcast" `Quick test_ipi_broadcast_reaches_all;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "identity-large: no misses" `Quick
            test_tlb_identity_large_no_misses;
          Alcotest.test_case "demand-paged: misses" `Quick
            test_tlb_demand_paged_misses;
          Alcotest.test_case "locality reduces misses" `Quick
            test_tlb_locality_reduces_misses;
        ] );
      ( "pipeline-interrupt",
        [
          Alcotest.test_case "speedup range" `Quick test_pipeline_speedup_range;
          Alcotest.test_case "cheaper than idt" `Quick
            test_pipeline_cheaper_than_idt;
          Alcotest.test_case "sweep monotone" `Quick test_pipeline_sweep_monotone;
          Alcotest.test_case "riscv platform (SecV-F)" `Quick
            test_riscv_platform_sane;
        ] );
    ]
