(** Inter-processor interrupts.

    The sender pays [ipi_send] cycles (accounted by the caller, since
    it happens inside whatever grant is running); after [ipi_latency]
    the interrupt is injected on the target core with the full
    architectural dispatch cost. *)

val send :
  Iw_engine.Sim.t ->
  Platform.t ->
  target:Cpu.t ->
  handler:(preempted:int -> int) ->
  after:(unit -> unit) ->
  unit
(** Deliver a single IPI to [target].  A fan-out (the §IV-B Nautilus
    heartbeat, one LAPIC tick on CPU 0 reaching every worker) is one
    send per target; each lands after the same fabric latency. *)
