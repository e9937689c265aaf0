(** Inter-processor interrupts.

    The sender pays [ipi_send] cycles (accounted by the caller, since
    it happens inside whatever grant is running); after [ipi_latency]
    the interrupt is injected on the target core, which charges the
    full architectural dispatch cost. *)

type delivery
(** One target core with its handler and resume path, built once and
    sent any number of times. *)

val delivery :
  Iw_engine.Sim.t ->
  Platform.t ->
  target:Cpu.t ->
  handler:(preempted:int -> int) ->
  after:(unit -> unit) ->
  delivery

val send : delivery -> unit
(** Deliver a single IPI; allocation-free.  A fan-out (the §IV-B
    Nautilus heartbeat, one LAPIC tick on CPU 0 reaching every worker)
    is one send per target's delivery; each lands after the same
    fabric latency. *)
