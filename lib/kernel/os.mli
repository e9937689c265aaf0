(** OS personalities: the cost/behavior profile that distinguishes a
    streamlined kernel (Nautilus) from a commodity one (Linux) on the
    same hardware.

    The scheduler engine ({!Sched}) is shared; a personality supplies
    the costs of its primitive operations.  All per-operation costs
    are totals — a Linux personality folds its kernel/user crossing
    into each operation's cost, a Nautilus personality has no
    crossings to fold. *)

type t = {
  os_name : string;
  pick : int;  (** Run-queue pick, non-real-time class. *)
  pick_rt : int;  (** Real-time class admission + pick. *)
  switch_int : int;  (** Integer-state context switch (save + restore). *)
  switch_fp_extra : int;  (** Additional cost when FP state moves. *)
  spawn : int;  (** Thread creation, start to runnable. *)
  exit : int;  (** Thread teardown. *)
  block : int;  (** Cost paid by a thread entering a blocked wait. *)
  wake : int;  (** Cost paid by the waker per thread woken. *)
  wake_latency : int;
      (** Delay before the target CPU notices a new runnable thread. *)
  sleep_arm : int;  (** Arming a one-shot software timer. *)
  timer_extra : int;
      (** Per-timer-event kernel path beyond the architectural
          interrupt dispatch (hrtimer/softirq bookkeeping; ~0 when the
          handler is wired straight to the vector). *)
  timer_jitter : Iw_engine.Rng.t -> int;
      (** Extra delivery delay drawn per timer event (slack,
          non-preemptible sections).  Must be >= 0. *)
  tick_cost : int;  (** Scheduler-tick bookkeeping in the handler. *)
  tick_noise : Iw_engine.Rng.t -> int;
      (** Occasional extra work hitching a ride on the tick (softirqs,
          RCU callbacks, kworkers) — the OS noise that stretches
          barriers as core counts grow.  0 for streamlined kernels. *)
  uncontended_sync : int;  (** User-space-only lock/unlock fast path. *)
}

val nautilus : Iw_hw.Platform.t -> t
(** §III Nautilus: no kernel/user distinction, per-CPU queues, direct
    vectoring, deterministic interrupt paths, fast threads. *)

val linux : Iw_hw.Platform.t -> t
(** Commodity baseline: CFS-weight picks, kernel crossings with
    speculation mitigations on every switch and blocking operation,
    futex block/wake, signal-path timers with slack. *)
