(* Deterministic fault injection.

   A [t] is a seed-driven fault plan: every injection point in the
   stack (IPI wires, local APICs, CPU grants, TLBs, cache lines, the
   virtine pool, CARAT moves) asks the ambient plan whether a fault
   fires *here*, *now*.  Decisions come from the plan's own splitmix64
   stream, never from the workload RNG — so two runs with the same
   (rate, seed, kinds) inject the identical fault schedule, and a run
   with the plan disabled draws nothing at all and stays byte-identical
   to a run that never heard of faults.

   The plan is scoped like the observability context: a domain-local
   ambient that defaults to [disabled], overridden with [with_ambient]
   for one run on one domain.  Parallel experiment drivers therefore
   never share or race on a plan, and fault schedules are stable under
   `-j`.

   Injection sites live at layer *boundaries* (the IPI leaving the
   sender, the APIC deciding to fire, the grant arming its completion)
   because that is where the paper's interweaving argument lives: the
   layer above can only compensate for what it can observe crossing
   the boundary below. *)

open Iw_engine
open Iw_obs

type kind =
  | Ipi_drop  (* the IPI is lost on the wire *)
  | Ipi_dup  (* the IPI is delivered twice *)
  | Ipi_delay  (* the IPI takes extra cycles to land *)
  | Timer_miss  (* an armed APIC fire is silently swallowed *)
  | Timer_late  (* the fire lands, but late *)
  | Timer_spurious  (* an extra, unasked-for fire *)
  | Cpu_stall  (* the core goes dark for N cycles mid-grant *)
  | Tlb_shootdown  (* a spurious remote shootdown / line invalidation *)
  | Virtine_fail  (* a virtine launch dies partway through boot *)
  | Pool_poison  (* a warm pool entry fails its health check *)
  | Move_interrupt  (* a CARAT region move is interrupted mid-copy *)
  | Dir_drop_ack  (* an invalidation ack never reaches the directory *)
  | Dir_stale  (* the directory names an owner that silently evicted *)
  | Barrier_drop  (* an OMP barrier arrival increment is lost *)
  | Link_drop  (* an inter-machine message vanishes on the wire *)
  | Link_delay  (* the message lands, but late *)
  | Machine_pause  (* a whole machine goes dark for one sync window *)
  | Worker_hang  (* a worker silently stops draining its queue *)
  | Req_corrupt  (* a completed response is garbage; re-execute *)
  | Machine_brownout  (* a machine slows by a drawn factor for a while *)
  | Nic_rx_drop  (* the NIC loses a frame before it reaches the ring *)
  | Nic_irq_lost  (* an asserted RX interrupt never reaches the CPU *)
  | Nic_ring_overrun  (* the RX ring spuriously reports full; frame lost *)

let kind_count = 23

let kind_index = function
  | Ipi_drop -> 0
  | Ipi_dup -> 1
  | Ipi_delay -> 2
  | Timer_miss -> 3
  | Timer_late -> 4
  | Timer_spurious -> 5
  | Cpu_stall -> 6
  | Tlb_shootdown -> 7
  | Virtine_fail -> 8
  | Pool_poison -> 9
  | Move_interrupt -> 10
  | Dir_drop_ack -> 11
  | Dir_stale -> 12
  | Barrier_drop -> 13
  | Link_drop -> 14
  | Link_delay -> 15
  | Machine_pause -> 16
  | Worker_hang -> 17
  | Req_corrupt -> 18
  | Machine_brownout -> 19
  | Nic_rx_drop -> 20
  | Nic_irq_lost -> 21
  | Nic_ring_overrun -> 22

(* CLI spelling, `--kinds ipi-drop,timer-late`. *)
let kind_name = function
  | Ipi_drop -> "ipi-drop"
  | Ipi_dup -> "ipi-dup"
  | Ipi_delay -> "ipi-delay"
  | Timer_miss -> "timer-miss"
  | Timer_late -> "timer-late"
  | Timer_spurious -> "timer-spurious"
  | Cpu_stall -> "cpu-stall"
  | Tlb_shootdown -> "tlb-shootdown"
  | Virtine_fail -> "virtine-fail"
  | Pool_poison -> "pool-poison"
  | Move_interrupt -> "move-interrupt"
  | Dir_drop_ack -> "dir-drop-ack"
  | Dir_stale -> "dir-stale"
  | Barrier_drop -> "barrier-drop"
  | Link_drop -> "link-drop"
  | Link_delay -> "link-delay"
  | Machine_pause -> "machine-pause"
  | Worker_hang -> "worker-hang"
  | Req_corrupt -> "req-corrupt"
  | Machine_brownout -> "machine-brownout"
  | Nic_rx_drop -> "nic-rx-drop"
  | Nic_irq_lost -> "nic-irq-lost"
  | Nic_ring_overrun -> "nic-ring-overrun"

let all_kinds =
  [
    Ipi_drop;
    Ipi_dup;
    Ipi_delay;
    Timer_miss;
    Timer_late;
    Timer_spurious;
    Cpu_stall;
    Tlb_shootdown;
    Virtine_fail;
    Pool_poison;
    Move_interrupt;
    Dir_drop_ack;
    Dir_stale;
    Barrier_drop;
    Link_drop;
    Link_delay;
    Machine_pause;
    Worker_hang;
    Req_corrupt;
    Machine_brownout;
    Nic_rx_drop;
    Nic_irq_lost;
    Nic_ring_overrun;
  ]

let kind_of_string s = List.find_opt (fun k -> kind_name k = s) all_kinds

type t = {
  enabled : bool;
  rate : float;  (* per-opportunity fault probability, in [0,1] *)
  armed : bool array;  (* indexed by kind_index *)
  rng : Rng.t;  (* the plan's own stream; workload RNGs never see it *)
  ipi_delay_cycles : int;
  timer_late_cycles : int;
  stall_cycles : int;
  net_delay_cycles : int;
  hang_cycles : int;
  brownout_cycles : int;
  mutable injected : int;
}

let disabled =
  {
    enabled = false;
    rate = 0.0;
    armed = Array.make kind_count false;
    rng = Rng.create ~seed:0;
    ipi_delay_cycles = 0;
    timer_late_cycles = 0;
    stall_cycles = 0;
    net_delay_cycles = 0;
    hang_cycles = 0;
    brownout_cycles = 0;
    injected = 0;
  }

let create ?(kinds = all_kinds) ?(ipi_delay_cycles = 4_000)
    ?(timer_late_cycles = 12_000) ?(stall_cycles = 25_000)
    ?(net_delay_cycles = 30_000) ?(hang_cycles = 60_000)
    ?(brownout_cycles = 1_500_000) ~rate ~seed () =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Plan.create: rate must be in [0,1]";
  let armed = Array.make kind_count false in
  List.iter (fun k -> armed.(kind_index k) <- true) kinds;
  {
    enabled = true;
    rate;
    armed;
    (* A fixed salt keeps the fault stream distinct from any workload
       stream that happens to use the same small seed. *)
    rng = Rng.create ~seed:(seed lxor 0x7FA0175);
    ipi_delay_cycles;
    timer_late_cycles;
    stall_cycles;
    net_delay_cycles;
    hang_cycles;
    brownout_cycles;
    injected = 0;
  }

let enabled t = t.enabled
let rate t = t.rate
let injected t = t.injected
let ipi_delay_cycles t = t.ipi_delay_cycles
let timer_late_cycles t = t.timer_late_cycles
let stall_cycles t = t.stall_cycles
let net_delay_cycles t = t.net_delay_cycles
let hang_cycles t = t.hang_cycles
let brownout_cycles t = t.brownout_cycles
let armed t k = t.enabled && t.armed.(kind_index k)

(* ------------------------------------------------------------------ *)
(* Ambient scoping, mirroring Obs. *)

let key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> disabled)
let ambient () = Domain.DLS.get key

let with_ambient plan f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key plan;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

(* ------------------------------------------------------------------ *)
(* Drawing decisions.  Every injected fault is observable: a
   [fault_injected] counter bump plus a trace instant naming the
   kind, so `trace`/`profile` show where resilience cycles go. *)

let note (t : t) (obs : Obs.t) ~kind ~cpu ~ts n =
  t.injected <- t.injected + n;
  Counter.add obs.Obs.counters Counter.Fault_injected n;
  let tr = obs.Obs.trace in
  if tr.Trace.enabled then
    Trace.instant tr ~name:("fault:" ^ kind_name kind) ~cat:"fault" ~cpu ~ts ()

(* One opportunity: does a [kind] fault fire here?  Draws exactly one
   sample when the kind is armed, none otherwise — so the schedule for
   one kind is independent of which other kinds are armed only when
   sites query kinds in a fixed order (they do).  The draw is
   [Rng.float t.rng 1.0] inlined, bit for bit, so no float crosses a
   function boundary (which would box it).  [Rng.chance] is no
   substitute: it skips the draw at rate 0, and an armed kind at
   rate 0 must still advance the stream. *)
let fire t obs ~kind ~cpu ~ts =
  armed t kind
  && float_of_int (Rng.raw53 t.rng) /. 9007199254740992.0 < t.rate
  && (note t obs ~kind ~cpu ~ts 1;
      true)

(* Bulk form for analytic sites (the TLB charges a whole phase of
   accesses at once): how many of [opportunities] fault?  Expected
   value rate*opportunities with a single Bernoulli draw for the
   fractional part — O(1) draws regardless of phase size. *)
let count t obs ~kind ~opportunities ~cpu ~ts =
  if (not (armed t kind)) || opportunities <= 0 then 0
  else begin
    let expect = t.rate *. float_of_int opportunities in
    let base = int_of_float expect in
    let frac = expect -. float_of_int base in
    let n = base + (if Rng.float t.rng 1.0 < frac then 1 else 0) in
    let n = min n opportunities in
    if n > 0 then note t obs ~kind ~cpu ~ts n;
    n
  end

(* ------------------------------------------------------------------ *)
(* Severity draws.  A site that just saw [fire] return true for a
   parameterized kind asks the plan how bad this instance is.  The
   draws come from the same plan stream, immediately after the firing
   draw, so the full schedule (when *and* how bad) is a pure function
   of (rate, seed, kinds) — and a site that never fires never draws. *)

(* One in four hangs never clears on its own; recovery must come from
   the layer above (the watchdog), not from waiting. *)
let draw_hang_permanent t = Rng.float t.rng 1.0 < 0.25

(* A brownout multiplies service cost by 2-4x (fixed-point x1000) for
   0.5-1.5x [brownout_cycles]. *)
let draw_brownout t =
  let slow_x1000 = 2_000 + int_of_float (Rng.float t.rng 1.0 *. 2_000.0) in
  let dur =
    max 1
      (int_of_float
         (float_of_int t.brownout_cycles *. (0.5 +. Rng.float t.rng 1.0)))
  in
  (slow_x1000, dur)
