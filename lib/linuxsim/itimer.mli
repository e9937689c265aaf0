(** POSIX-flavored interval timers with signal delivery (§IV-B's
    Linux event chain).

    Each expiry takes the full commodity path on the target CPU:
    hardware timer interrupt (architectural dispatch), hrtimer/softirq
    bookkeeping, signal-frame setup into user space, the user handler,
    then sigreturn — plus per-expiry jitter drawn from the
    personality.  Expirations tick on the wall-clock grid; if the
    previous delivery is still in flight when the next expiry lands,
    the signal coalesces (an {e overrun}), which is exactly why Linux
    cannot sustain fine-grained heartbeats (Fig. 3). *)

type t

val create :
  Iw_kernel.Sched.t ->
  cpu:int ->
  period:int ->
  ?handler_cost:int ->
  handler:(preempted:int -> unit) ->
  unit ->
  t
(** The handler runs in "signal context" on [cpu]; [preempted] follows
    {!Iw_hw.Cpu.interrupt} semantics.  An expiry and a delivery
    allocate nothing. *)

val start : t -> unit
val stop : t -> unit

val delivered : t -> int
val overruns : t -> int
(** Expirations that coalesced into a still-pending delivery. *)
