(** Per-core local APIC timer.

    Nautilus programs the LAPIC directly (no kernel/user crossing, no
    timer-slack coalescing), so its timer interrupts land exactly at
    the programmed deadline plus the architectural dispatch cost.  The
    Linux model adds its own slack on top (see {!Iw_linuxsim}). *)

type t

val create : Iw_engine.Sim.t -> Platform.t -> Cpu.t -> t

val periodic :
  t ->
  ?phase:int ->
  period:int ->
  handler:(preempted:int -> int) ->
  after:(unit -> unit) ->
  unit ->
  unit
(** Arm in periodic mode: interrupts every [period] cycles, starting
    [phase] (default [period]) from now, until {!stop}.  Ticks are injected on schedule
    even when the previous one is still queued (the queue then grows,
    just like a real APIC holding a pending vector). *)

val stop : t -> unit
(** Disarm: every periodic stream on this LAPIC stops. *)
