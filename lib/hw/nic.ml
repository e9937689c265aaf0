(* Simulated NIC.

   One device per machine, living entirely in that machine's event
   context: flat-array descriptor rings in the PR 6 zero-allocation
   style (slots recycled in place, free-running head/tail, no boxing),
   an ITR moderation register enforced by a reusable one-shot timer,
   and IMS-style auto-mask interrupt assertion.  Nothing here draws
   from a workload RNG; the only nondeterminism source is the captured
   fault plan's own stream, so the device is deterministic under the
   fleet's conservative windows. *)

open Iw_engine
open Iw_obs
open Iw_faults

module Ring = struct
  type t = {
    buf : int array;  (* stride 3: payload a, payload b, enqueue ts *)
    mask : int;  (* capacity - 1; capacity is a power of two *)
    mutable head : int;  (* next slot to consume; free-running *)
    mutable tail : int;  (* next slot to fill; free-running *)
    mutable overruns : int;
  }

  let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

  let create cap =
    if cap <= 0 then invalid_arg "Nic.Ring.create: capacity <= 0";
    let cap = pow2 cap 1 in
    {
      buf = Array.make (cap * 3) 0;
      mask = cap - 1;
      head = 0;
      tail = 0;
      overruns = 0;
    }

  let capacity r = r.mask + 1
  let length r = r.tail - r.head
  let is_empty r = r.tail = r.head
  let is_full r = r.tail - r.head > r.mask

  let push r ~a ~b ~ts =
    if r.tail - r.head > r.mask then begin
      r.overruns <- r.overruns + 1;
      false
    end
    else begin
      let i = (r.tail land r.mask) * 3 in
      r.buf.(i) <- a;
      r.buf.(i + 1) <- b;
      r.buf.(i + 2) <- ts;
      r.tail <- r.tail + 1;
      true
    end

  let peek_a r =
    if is_empty r then invalid_arg "Nic.Ring.peek_a: empty";
    r.buf.((r.head land r.mask) * 3)

  let peek_b r =
    if is_empty r then invalid_arg "Nic.Ring.peek_b: empty";
    r.buf.(((r.head land r.mask) * 3) + 1)

  let peek_ts r =
    if is_empty r then invalid_arg "Nic.Ring.peek_ts: empty";
    r.buf.(((r.head land r.mask) * 3) + 2)

  let pop r =
    if is_empty r then invalid_arg "Nic.Ring.pop: empty";
    r.head <- r.head + 1

  let overruns r = r.overruns
end

(* Fixed for every device: no caller has needed another value. *)

(* RX and TX descriptor count (a power of two). *)
let ring_slots = 256

(* Per-descriptor TX drain cost, in cycles. *)
let tx_cycles = 120

type t = {
  sim : Sim.t;
  obs : Obs.t;
  plan : Plan.t;
  rx : Ring.t;
  tx : Ring.t;
  itr_cycles : int;
  mutable on_irq : unit -> unit;
  mutable on_tx : a:int -> b:int -> unit;
  mutable irq_enabled : bool;
  mutable irq_inflight : bool;
  mutable last_assert : int;
  itr_timer : Sim.timer;
  mutable itr_pending : bool;  (* deferred assertion armed *)
  mutable itr_cb : unit -> unit;  (* preallocated timer callback *)
  tx_timer : Sim.timer;
  mutable tx_busy : bool;  (* drain timer armed *)
  mutable tx_cb : unit -> unit;
  mutable rx_pkts : int;
  mutable rx_drops : int;
  mutable irqs : int;
  mutable irqs_lost : int;
  mutable tx_pkts : int;
}

let assert_now t =
  let now = Sim.now t.sim in
  t.last_assert <- now;
  (* Auto-mask (IMS): the device stays quiet until the driver
     re-enables, no matter how many frames land meanwhile. *)
  t.irq_enabled <- false;
  if Plan.fire t.plan t.obs ~kind:Plan.Nic_irq_lost ~cpu:0 ~ts:now then
    (* The assertion vanished after the mask: the ring is stranded
       until a layer above notices.  [irq_inflight] stays false so the
       stranded state is exactly observable. *)
    t.irqs_lost <- t.irqs_lost + 1
  else begin
    t.irqs <- t.irqs + 1;
    Counter.incr t.obs.Obs.counters Counter.Nic_irqs;
    if t.obs.Obs.trace.Trace.enabled then
      Trace.instant t.obs.Obs.trace ~name:"nic:irq" ~cat:"nic" ~cpu:0 ~ts:now
        ();
    t.irq_inflight <- true;
    t.on_irq ()
  end

let maybe_assert t =
  if t.irq_enabled && (not t.itr_pending) && Ring.length t.rx > 0 then begin
    let now = Sim.now t.sim in
    let due = t.last_assert + t.itr_cycles in
    if t.itr_cycles = 0 || due <= now then assert_now t
    else begin
      (* ITR moderation: defer the assertion to the earliest cycle
         that honors the minimum gap.  One reusable timer, one armed
         deferral at a time — deterministic by construction. *)
      t.itr_pending <- true;
      Sim.arm t.sim t.itr_timer ~at:due t.itr_cb
    end
  end

let create ?obs ~sim itr_cycles =
  if itr_cycles < 0 then invalid_arg "Nic.create: itr < 0";
  let obs = match obs with Some o -> o | None -> Obs.ambient () in
  let t =
    {
      sim;
      obs;
      plan = Plan.ambient ();
      rx = Ring.create ring_slots;
      tx = Ring.create ring_slots;
      itr_cycles;
      on_irq = ignore;
      on_tx = (fun ~a:_ ~b:_ -> ());
      irq_enabled = true;
      irq_inflight = false;
      (* Far enough in the past that the first assertion is never
         ITR-deferred. *)
      last_assert = -(max_int asr 1);
      itr_timer = Sim.timer sim;
      itr_pending = false;
      itr_cb = ignore;
      tx_timer = Sim.timer sim;
      tx_busy = false;
      tx_cb = ignore;
      rx_pkts = 0;
      rx_drops = 0;
      irqs = 0;
      irqs_lost = 0;
      tx_pkts = 0;
    }
  in
  t.itr_cb <-
    (fun () ->
      t.itr_pending <- false;
      if t.irq_enabled && Ring.length t.rx > 0 then assert_now t);
  t.tx_cb <-
    (fun () ->
      let a = Ring.peek_a t.tx and b = Ring.peek_b t.tx in
      Ring.pop t.tx;
      t.tx_pkts <- t.tx_pkts + 1;
      Counter.incr t.obs.Obs.counters Counter.Nic_tx_pkts;
      t.on_tx ~a ~b;
      if Ring.length t.tx > 0 then
        Sim.arm t.sim t.tx_timer ~at:(Sim.now t.sim + tx_cycles) t.tx_cb
      else t.tx_busy <- false);
  t

let set_on_irq t f = t.on_irq <- f
let set_on_tx t f = t.on_tx <- f
let itr t = t.itr_cycles

let drop t =
  t.rx_drops <- t.rx_drops + 1;
  Counter.incr t.obs.Obs.counters Counter.Nic_rx_drops;
  false

let rx_push t ~a ~b =
  let now = Sim.now t.sim in
  if Plan.fire t.plan t.obs ~kind:Plan.Nic_rx_drop ~cpu:0 ~ts:now then drop t
  else if
    (* An injected overrun short-circuits the push: the ring spuriously
       reported full, so the slot is never written. *)
    Plan.fire t.plan t.obs ~kind:Plan.Nic_ring_overrun ~cpu:0 ~ts:now
    || not (Ring.push t.rx ~a ~b ~ts:now)
  then drop t
  else begin
    t.rx_pkts <- t.rx_pkts + 1;
    Counter.incr t.obs.Obs.counters Counter.Nic_rx_pkts;
    maybe_assert t;
    true
  end

let rx_avail t = Ring.length t.rx
let rx_peek_a t = Ring.peek_a t.rx
let rx_peek_b t = Ring.peek_b t.rx
let rx_consume t = Ring.pop t.rx
let irq_enabled t = t.irq_enabled

let enable_irq t =
  if not t.irq_enabled then begin
    t.irq_enabled <- true;
    maybe_assert t
  end

let disable_irq t = t.irq_enabled <- false
let irq_inflight t = t.irq_inflight
let irq_done t = t.irq_inflight <- false

let tx_push t ~a ~b =
  let now = Sim.now t.sim in
  if not (Ring.push t.tx ~a ~b ~ts:now) then false
  else begin
    if not t.tx_busy then begin
      t.tx_busy <- true;
      Sim.arm t.sim t.tx_timer ~at:(now + tx_cycles) t.tx_cb
    end;
    true
  end

let stop t =
  Sim.disarm t.sim t.itr_timer;
  Sim.disarm t.sim t.tx_timer;
  t.itr_pending <- false;
  t.tx_busy <- false

let rx_pkts t = t.rx_pkts
let rx_drops t = t.rx_drops
let irqs t = t.irqs
let irqs_lost t = t.irqs_lost
let tx_pkts t = t.tx_pkts
