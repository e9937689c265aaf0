(* NIC driver: interrupt, busy-poll, and NAPI-style hybrid RX.

   All callbacks are preallocated (the poll tick, the slack tick and
   the interrupt handler at creation, the end of interrupt by the
   kernel at boot), so the steady-state receive path allocates
   nothing, as the executor hot path does. *)

open Iw_engine
open Iw_hw
open Iw_obs
open Iw_faults

type mode = Irq | Poll | Hybrid

let mode_name = function Irq -> "irq" | Poll -> "poll" | Hybrid -> "hybrid"

let mode_of_string = function
  | "irq" -> Some Irq
  | "poll" -> Some Poll
  | "hybrid" -> Some Hybrid
  | _ -> None

(* Fixed for every driver: no caller has needed another value. *)

(* IRQ steering target. *)
let irq_cpu = 0

let budget = 16

(* Poll-engine period, lost-IRQ slack-scan period, and the hybrid
   switch-in gap (an inter-IRQ gap at or under it counts as "arriving
   fast"), in microseconds of the driver's own kernel clock. *)
let poll_us = 1.0
let slack_us = 50.0
let switch_gap_us = 4.0

(* Cycles one poll check burns, and the per-frame handler cost charged
   on IRQ. *)
let poll_cost = 80
let pkt_cycles = 120

(* Hybrid: fast gaps in a row before polling, and empty polls in a row
   before interrupts come back. *)
let switch_streak = 2
let idle_polls = 12

type t = {
  k : Sched.t;
  nic : Nic.t;
  mode : mode;
  poll_cycles : int;
  slack_cycles : int;
  switch_gap : int;
  handler : a:int -> b:int -> unit;
  poll_timer : Sim.timer;
  mutable polling : bool;
  mutable poll_cb : unit -> unit;
  slack_timer : Sim.timer;
  mutable slack_cb : unit -> unit;
  mutable irq_h : preempted:int -> int;
  mutable recovering : bool;  (* slack re-injection awaiting its handler *)
  mutable prev_irq_ts : int;  (* arrival-rate estimator state *)
  mutable short_streak : int;  (* consecutive inter-IRQ gaps below threshold *)
  mutable empty_streak : int;  (* consecutive empty polls while polling *)
  mutable stopped : bool;
  mutable irq_bursts : int;
  mutable switches : int;
}

(* Batched receive: deliver at most [budget] frames to the handler. *)
let drain t =
  let n = ref 0 in
  while !n < budget && Nic.rx_avail t.nic > 0 do
    let a = Nic.rx_peek_a t.nic and b = Nic.rx_peek_b t.nic in
    Nic.rx_consume t.nic;
    incr n;
    t.handler ~a ~b
  done;
  !n

let arm_poll t =
  Sim.arm (Sched.sim t.k) t.poll_timer
    ~at:(Sim.now (Sched.sim t.k) + t.poll_cycles)
    t.poll_cb

let start_polling t =
  if not t.polling then begin
    t.polling <- true;
    t.switches <- t.switches + 1;
    arm_poll t
  end

(* Inject the delivery on the steered CPU — same cost model as
   [Device_irq] — whether the device asserted it or the slack timer is
   re-injecting a lost one. *)
let deliver t =
  Cpu.interrupt (Sched.cpu t.k irq_cpu) ~handler:t.irq_h
    ~after:(Sched.resched_or_resume t.k irq_cpu)

let create ~k ~nic mode ~handler =
  let cyc = Platform.cycles_of_us (Sched.platform k) in
  let t =
    {
      k;
      nic;
      mode;
      poll_cycles = max 1 (cyc poll_us);
      slack_cycles = cyc slack_us;
      switch_gap = cyc switch_gap_us;
      handler;
      poll_timer = Sim.timer (Sched.sim k);
      polling = false;
      poll_cb = ignore;
      slack_timer = Sim.timer (Sched.sim k);
      slack_cb = ignore;
      irq_h = (fun ~preempted:_ -> 0);
      recovering = false;
      prev_irq_ts = min_int asr 1;
      short_streak = 0;
      empty_streak = 0;
      stopped = false;
      irq_bursts = 0;
      switches = 0;
    }
  in
  let ctr = Sched.counters k in
  t.irq_h <-
    (fun ~preempted:_ ->
      t.irq_bursts <- t.irq_bursts + 1;
      t.recovering <- false;
      let now = Sim.now (Sched.sim t.k) in
      let gap = now - t.prev_irq_ts in
      t.prev_irq_ts <- now;
      if gap <= t.switch_gap then t.short_streak <- t.short_streak + 1
      else t.short_streak <- 0;
      let n = drain t in
      Nic.irq_done t.nic;
      (match t.mode with
      | Irq -> Nic.enable_irq t.nic
      | Hybrid ->
          (* NAPI-style, driven by the observed arrival rate: a run of
             back-to-back interrupts (or a budget-limited drain that
             left frames behind) arms the poll loop; otherwise stay
             interrupt-driven. *)
          if
            t.short_streak >= switch_streak
            || (n >= budget && Nic.rx_avail t.nic > 0)
          then start_polling t
          else Nic.enable_irq t.nic
      | Poll -> ());
      max 1 (n * pkt_cycles));
  t.poll_cb <-
    (fun () ->
      if (not t.stopped) && t.polling then begin
        Counter.incr ctr Counter.Nic_polls;
        let n = drain t in
        if n = 0 then begin
          Counter.incr ctr Counter.Nic_poll_empty;
          match t.mode with
          | Poll -> arm_poll t
          | Hybrid ->
              (* Drains coming up empty: after a short idle streak the
                 arrival estimate no longer justifies burning checks,
                 so hand back to interrupts. *)
              t.empty_streak <- t.empty_streak + 1;
              if t.empty_streak >= idle_polls then begin
                t.polling <- false;
                t.short_streak <- 0;
                Nic.enable_irq t.nic
              end
              else arm_poll t
          | Irq -> ()
        end
        else begin
          t.empty_streak <- 0;
          arm_poll t
        end
      end);
  t.slack_cb <-
    (fun () ->
      if not t.stopped then begin
        if
          (not t.polling) && (not t.recovering)
          && Nic.rx_avail t.nic > 0
          && (not (Nic.irq_enabled t.nic))
          && not (Nic.irq_inflight t.nic)
        then begin
          (* The device masked itself and the assertion never arrived:
             recover by re-injecting the delivery from up here. *)
          Counter.incr ctr Counter.Nic_irq_recover;
          let obs = Sched.obs t.k in
          if obs.Obs.trace.Trace.enabled then
            Trace.instant obs.Obs.trace ~name:"nic:irq-recover" ~cat:"nic"
              ~cpu:irq_cpu
              ~ts:(Sim.now (Sched.sim t.k))
              ();
          t.recovering <- true;
          deliver t
        end;
        Sim.arm (Sched.sim t.k) t.slack_timer
          ~at:(Sim.now (Sched.sim t.k) + t.slack_cycles)
          t.slack_cb
      end);
  (match t.mode with
  | Irq | Hybrid -> Nic.set_on_irq nic (fun () -> deliver t)
  | Poll ->
      Nic.disable_irq nic;
      t.polling <- true;
      arm_poll t);
  (* The recovery scan only exists when the fault it recovers from can
     fire — unfaulted runs never arm the timer. *)
  (match t.mode with
  | Poll -> ()
  | Irq | Hybrid ->
      if Plan.armed (Plan.ambient ()) Plan.Nic_irq_lost then
        Sim.arm (Sched.sim t.k) t.slack_timer
          ~at:(Sim.now (Sched.sim t.k) + t.slack_cycles)
          t.slack_cb);
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Sim.disarm (Sched.sim t.k) t.poll_timer;
    Sim.disarm (Sched.sim t.k) t.slack_timer
  end

let mode t = t.mode
let irq_bursts t = t.irq_bursts
let switches t = t.switches
