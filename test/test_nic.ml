(* Tests for the simulated NIC: descriptor-ring properties (qcheck
   against a reference queue), ITR moderation, batched receive, the
   hybrid driver's mode transitions, and lost-IRQ recovery. *)

open Iw_engine
open Iw_hw
open Iw_kernel
module Ring = Nic.Ring
module Plan = Iw_faults.Plan
module Counter = Iw_obs.Counter

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let plat = Platform.knl
let nk () = Sched.boot ~personality:(Os.nautilus plat) plat

(* The device and its driver count on the kernel's counter set. *)
let count k id = Counter.get (Sched.counters k) id

(* ------------------------------------------------------------------ *)
(* Ring properties *)

(* Random push/pop interleavings agree with a reference FIFO, including
   full-ring rejections and wraparound (the op count far exceeds the
   capacity, so head/tail lap the buffer many times). *)
let prop_ring_matches_queue =
  QCheck.Test.make ~name:"ring is a bounded FIFO (vs reference queue)"
    ~count:100
    QCheck.(pair (int_bound 6) (list (int_bound 99)))
    (fun (cap_log, ops) ->
      let cap = 1 lsl cap_log in
      let r = Ring.create cap in
      let q = Queue.create () in
      List.iteri
        (fun i op ->
          if op < 60 then begin
            (* push: must succeed iff the model has room *)
            let ok = Ring.push r ~a:i ~b:(i * 7) ~ts:i in
            if Queue.length q < cap then begin
              if not ok then QCheck.Test.fail_report "push rejected with room";
              Queue.push (i, i * 7) q
            end
            else if ok then QCheck.Test.fail_report "push accepted when full"
          end
          else if not (Ring.is_empty r) then begin
            let ea, eb = Queue.pop q in
            if Ring.peek_a r <> ea || Ring.peek_b r <> eb then
              QCheck.Test.fail_report "pop order diverged";
            Ring.pop r
          end)
        ops;
      Ring.length r = Queue.length q)

let test_ring_wraparound () =
  let r = Ring.create 4 in
  (* Push/pop far past capacity: indices wrap, FIFO order holds. *)
  for i = 0 to 99 do
    check_bool "push with room" true (Ring.push r ~a:i ~b:(-i) ~ts:i);
    check_int "fifo a" i (Ring.peek_a r);
    check_int "fifo b" (-i) (Ring.peek_b r);
    check_int "fifo ts" i (Ring.peek_ts r);
    Ring.pop r
  done;
  check_bool "empty at the end" true (Ring.is_empty r);
  check_int "no overruns" 0 (Ring.overruns r)

let test_ring_overrun_accounting () =
  let r = Ring.create 4 in
  for i = 0 to 3 do
    check_bool "fills" true (Ring.push r ~a:i ~b:0 ~ts:0)
  done;
  check_bool "full" true (Ring.is_full r);
  check_bool "overflow rejected" false (Ring.push r ~a:99 ~b:0 ~ts:0);
  check_bool "overflow rejected again" false (Ring.push r ~a:98 ~b:0 ~ts:0);
  check_int "overruns counted" 2 (Ring.overruns r);
  Ring.pop r;
  check_bool "room after pop" true (Ring.push r ~a:4 ~b:0 ~ts:1);
  check_int "old frames undisturbed" 1 (Ring.peek_a r)

let test_ring_rounds_capacity () =
  check_int "rounded up to pow2" 8 (Ring.capacity (Ring.create 5));
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Nic.Ring.create: capacity <= 0") (fun () ->
      ignore (Ring.create 0))

(* ------------------------------------------------------------------ *)
(* Batched receive: however many frames are waiting, one drain hands
   the handler at most [Nic_driver.budget] of them.  Drains are
   instantaneous in sim time, so "per drain" is "per distinct delivery
   timestamp". *)

let prop_batch_le_budget =
  QCheck.Test.make ~name:"drain batches never exceed the budget" ~count:40
    QCheck.(int_range 1 80)
    (fun frames ->
      let budget = Nic_driver.budget in
      let k = nk () in
      let sim = Sched.sim k in
      let nic = Nic.create ~obs:(Sched.obs k) ~sim 0 in
      let stamps = ref [] in
      let drv =
        Nic_driver.create ~k ~nic Poll
          ~handler:(fun ~a:_ ~b:_ -> stamps := Sim.now sim :: !stamps)
      in
      Sim.schedule_unit sim ~at:100 (fun () ->
          for i = 0 to frames - 1 do
            ignore (Nic.rx_push nic ~a:i ~b:0)
          done);
      (* Poll mode re-arms forever; bound the run and stop the timers. *)
      Sched.run_until k 1_000_000;
      Nic_driver.stop drv;
      Nic.stop nic;
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun ts ->
          Hashtbl.replace tbl ts (1 + Option.value ~default:0 (Hashtbl.find_opt tbl ts)))
        !stamps;
      Hashtbl.iter
        (fun _ n ->
          if n > budget then QCheck.Test.fail_report "batch exceeded budget")
        tbl;
      List.length !stamps = frames)

(* ------------------------------------------------------------------ *)
(* ITR moderation *)

let test_itr_moderates_interrupts () =
  let k = nk () in
  let sim = Sched.sim k in
  let nic = Nic.create ~obs:(Sched.obs k) ~sim 10_000 in
  let delivered = ref 0 in
  let drv =
    Nic_driver.create ~k ~nic Irq
      ~handler:(fun ~a:_ ~b:_ -> incr delivered)
  in
  (* Ten frames, 1000 cycles apart: the first asserts immediately, the
     rest queue behind the 10_000-cycle ITR gap and drain as one batch
     on the deferred assertion. *)
  for i = 1 to 10 do
    Sim.schedule_unit sim ~at:(i * 1000) (fun () ->
        ignore (Nic.rx_push nic ~a:i ~b:0))
  done;
  Sched.run k;
  Nic_driver.stop drv;
  Nic.stop nic;
  check_int "all frames delivered" 10 !delivered;
  check_int "moderated down to two interrupts" 2 (count k Counter.Nic_irqs);
  check_int "nothing dropped" 0 (count k Counter.Nic_rx_drops)

(* ------------------------------------------------------------------ *)
(* Hybrid driver transitions, pinned at a fixed arrival trace.

   On the 1.3 GHz KNL clock: a streak of 2 inter-IRQ gaps <= 4 us
   (5200 cycles) arms the poll loop; 12 consecutive empty polls (1 us,
   1300 cycles, apart) re-enable interrupts. *)

let test_hybrid_irq_poll_irq () =
  let k = nk () in
  let sim = Sched.sim k in
  let nic = Nic.create ~obs:(Sched.obs k) ~sim 0 in
  let delivered = ref 0 in
  let drv =
    Nic_driver.create ~k ~nic Hybrid
      ~handler:(fun ~a:_ ~b:_ -> incr delivered)
  in
  let push at = Sim.schedule_unit sim ~at (fun () -> ignore (Nic.rx_push nic ~a:at ~b:0)) in
  (* Three closely spaced frames: IRQ, IRQ (streak 1), IRQ (streak 2
     -> switch to polling). *)
  push 1_000;
  push 3_000;
  push 5_000;
  (* Arrives while polling: picked up by a poll, no interrupt. *)
  push 7_000;
  (* Silence follows: 12 empty polls hand back to interrupts, so a
     late frame asserts again. *)
  push 80_000;
  Sched.run k;
  Nic_driver.stop drv;
  Nic.stop nic;
  check_int "all frames delivered" 5 !delivered;
  check_int "one switch into polling" 1 (Nic_driver.switches drv);
  check_int "three irqs in, one irq after the poll phase" 4
    (Nic_driver.irq_bursts drv);
  check_int "device agrees" 4 (count k Counter.Nic_irqs);
  check_bool "the poll phase did some polling" true
    (count k Counter.Nic_polls >= 13);
  check_bool "idle hysteresis was exercised" true
    (count k Counter.Nic_poll_empty >= 12)

(* ------------------------------------------------------------------ *)
(* Faults: a lost interrupt strands the ring; the driver's slack scan
   notices and re-injects the delivery. *)

let test_irq_lost_recovered_by_slack_scan () =
  let plan = Plan.create ~kinds:[ Plan.Nic_irq_lost ] ~rate:1.0 ~seed:7 () in
  Plan.with_ambient plan (fun () ->
      let k = nk () in
      let sim = Sched.sim k in
      let nic = Nic.create ~obs:(Sched.obs k) ~sim 0 in
      let delivered = ref 0 in
      let drv =
        Nic_driver.create ~k ~nic Irq
          ~handler:(fun ~a:_ ~b:_ -> incr delivered)
      in
      Sim.schedule_unit sim ~at:1_000 (fun () ->
          ignore (Nic.rx_push nic ~a:1 ~b:0));
      (* The slack timer re-arms forever; bound the run. *)
      Sched.run_until k 500_000;
      Nic_driver.stop drv;
      Nic.stop nic;
      check_int "assertion swallowed" 1 (Nic.irqs_lost nic);
      check_int "zero device interrupts" 0 (count k Counter.Nic_irqs);
      check_int "slack scan re-injected" 1 (count k Counter.Nic_irq_recover);
      check_int "frame still delivered" 1 !delivered)

let test_rx_drop_fault_counted () =
  let plan = Plan.create ~kinds:[ Plan.Nic_rx_drop ] ~rate:1.0 ~seed:7 () in
  Plan.with_ambient plan (fun () ->
      let k = nk () in
      let nic = Nic.create ~obs:(Sched.obs k) ~sim:(Sched.sim k) 0 in
      check_bool "frame lost at the device" false (Nic.rx_push nic ~a:1 ~b:0);
      check_int "drop counted" 1 (count k Counter.Nic_rx_drops);
      check_int "ring untouched" 0 (Nic.rx_avail nic);
      Nic.stop nic)

let () =
  Alcotest.run "nic"
    [
      ( "ring",
        [
          QCheck_alcotest.to_alcotest prop_ring_matches_queue;
          Alcotest.test_case "wraparound fifo" `Quick test_ring_wraparound;
          Alcotest.test_case "overrun accounting" `Quick
            test_ring_overrun_accounting;
          Alcotest.test_case "capacity rounding" `Quick
            test_ring_rounds_capacity;
        ] );
      ( "driver",
        [
          QCheck_alcotest.to_alcotest prop_batch_le_budget;
          Alcotest.test_case "itr moderation" `Quick
            test_itr_moderates_interrupts;
          Alcotest.test_case "hybrid irq->poll->irq" `Quick
            test_hybrid_irq_poll_irq;
        ] );
      ( "faults",
        [
          Alcotest.test_case "lost irq recovered" `Quick
            test_irq_lost_recovered_by_slack_scan;
          Alcotest.test_case "rx drop counted" `Quick
            test_rx_drop_fault_counted;
        ] );
    ]
