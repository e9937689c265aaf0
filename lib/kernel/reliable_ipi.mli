(** Acknowledged IPIs with bounded exponential-backoff resend.

    An {!Iw_hw.Ipi.send} to [target], but the sender tracks delivery: if
    the wrapped handler has not run by the timeout, the IPI is resent
    with a doubled timeout, up to 5 total sends.  The first timeout is
    8 wire latencies plus 4 interrupt round trips.  Each resend bumps
    the [ipi_retry] counter and emits an [ipi_retry] trace instant.
    Handlers may run more than once (a duplicated wire or a resend
    racing a slow delivery); callers must be idempotent.  Each call
    builds one {!Iw_hw.Ipi.delivery} around its acknowledging handler,
    and its resends reuse it.  A fan-out is one send per target. *)

val send :
  Iw_engine.Sim.t ->
  Iw_hw.Platform.t ->
  target:Iw_hw.Cpu.t ->
  handler:(preempted:int -> int) ->
  after:(unit -> unit) ->
  unit
