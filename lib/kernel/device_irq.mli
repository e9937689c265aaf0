(** Steerable device interrupts (§III).

    Nautilus makes interrupts fully steerable, so device interrupt
    load "can largely be avoided on most hardware threads" — a
    parallel workload's workers never take device vectors.  The
    commodity default spreads vectors across CPUs (irqbalance-style),
    so every worker periodically loses ~1000+ cycles mid-computation,
    and barrier-structured programs lose it on the critical path.

    This module is a device model that injects interrupts at a fixed
    rate under either policy, on top of whatever kernel is running. *)

type policy =
  | Steered of int  (** All vectors land on this (housekeeping) CPU. *)
  | Spread  (** Round-robin across all CPUs. *)

type t

val start :
  Sched.t -> rate_hz:float -> ?handler_cost:int -> policy -> t
(** Begin injecting interrupts at [rate_hz] (wall-clock rate at the
    platform's frequency).  [handler_cost] (default 600 cycles)
    models the driver's top-half work.  A delivery allocates nothing:
    the handler is built once here and the end of interrupt is the
    kernel's ({!Sched.resched_or_resume}).  Refuses, naming the field,
    a [rate_hz] that is not positive ([Invalid_argument
    "Device_irq.start: rate_hz must be > 0"]) and a [Steered] cpu
    outside the kernel's CPUs (["Device_irq.start: Steered cpu must
    be in [0,N)"]). *)

val stop : t -> unit

val delivered : t -> int
val per_cpu : t -> int array
(** Deliveries per CPU so far. *)
