(** Kernel-side NIC driver: interrupt, busy-poll, and NAPI-style
    hybrid receive.

    The driver is the layer above {!Iw_hw.Nic}: it owns the RX drain
    (batched, at most {!budget} frames per burst) and chooses how
    packets reach the handler:

    - [Irq]: every device assertion lands on CPU 0 through
      {!Iw_hw.Cpu.interrupt} (the same dispatch/return costs as
      [Device_irq]), the handler drains a budget-bounded batch at 120
      cycles per frame, then re-enables the auto-masked device — so
      interrupt work taxes the worker that owns that core, which is
      the whole tradeoff.
    - [Poll]: the device is masked forever and a dedicated poll engine
      (a sim timer, not a worker core — think a DPDK lcore) checks the
      ring every 1 us, burning 80 cycles per check whether or not
      frames are waiting.  Empty checks are the wasted-poll-cycles
      power proxy.
    - [Hybrid] (NAPI): interrupts armed; the driver watches the
      observed arrival rate through inter-IRQ gaps, and a streak of 2
      gaps at or under 4 us (or a budget-limited drain that leaves
      frames behind) switches to the poll loop; 12 consecutive empty
      polls re-enable interrupts and stop polling.

    Times are in the driver's own kernel clock
    ({!Sched.platform}'s [ghz]).  Poll checks, empty checks and
    recoveries are counted ([nic_polls], [nic_poll_empty],
    [nic_irq_recover]) on the kernel's counter set ({!Sched.counters})
    and nowhere else.

    Lost-interrupt recovery lives here, one layer above the fault:
    when the ambient plan arms [Nic_irq_lost] (and the mode can take
    interrupts), a slack timer scans every 50 us for the stranded
    state — device masked, no assertion in flight, frames waiting —
    and re-injects the delivery, counted as [nic_irq_recover].
    Unfaulted runs never arm the timer, so they stay
    byte-identical. *)

open Iw_hw

type mode = Irq | Poll | Hybrid

val mode_name : mode -> string
val mode_of_string : string -> mode option

val budget : int
(** Max frames per IRQ burst or poll check: 16. *)

val poll_cost : int
(** Cycles one poll check burns: 80.  An empty check's cycles are
    wasted, so [poll_cost] × [nic_poll_empty] is the power proxy. *)

type t

val create :
  k:Sched.t -> nic:Nic.t -> mode -> handler:(a:int -> b:int -> unit) -> t
(** Wires the device's [on_irq], masks it in [Poll] mode, starts the
    poll engine ([Poll]) and — only when the ambient plan arms
    [Nic_irq_lost] — the recovery slack timer.  [handler] receives
    each frame's payload words from event context. *)

val stop : t -> unit
(** Disarm the poll and slack timers (idempotent); like the executor's
    watchdog, a drained simulator must not be kept alive by them. *)

val mode : t -> mode

val irq_bursts : t -> int
(** Handler runs, device-asserted or re-injected. *)

val switches : t -> int
(** Hybrid IRQ→poll transitions. *)
