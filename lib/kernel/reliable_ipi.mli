(** Acknowledged IPIs with bounded exponential-backoff resend.

    Same shape as {!Iw_hw.Ipi}, but the sender tracks delivery: if the
    wrapped handler has not run by the timeout, the IPI is resent with
    a doubled timeout, up to 5 total sends.  Each resend
    bumps the [ipi_retry] counter and emits an [ipi_retry] trace
    instant.  Handlers may run more than once (a duplicated wire or a
    resend racing a slow delivery); callers must be idempotent. *)

val broadcast :
  ?timeout:int ->
  Iw_engine.Sim.t ->
  Iw_hw.Platform.t ->
  targets:Iw_hw.Cpu.t list ->
  handler:(int -> preempted:int -> int) ->
  after:(int -> unit) ->
  unit
