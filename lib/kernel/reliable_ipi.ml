(* Acknowledged IPIs with bounded exponential-backoff resend.

   The wire below (Ipi) may drop, delay, or duplicate under an active
   fault plan.  This is the kernel layer compensating: the handler is
   wrapped to record delivery, and a resend check is scheduled per
   attempt — if the ack has not landed by the timeout, the IPI is sent
   again with a doubled timeout, up to [max_attempts].  Duplicate
   deliveries (from the wire, or from a resend racing a slow first
   copy) run the handler again; callers' handlers must tolerate that,
   which heartbeat-style "check and maybe promote" handlers do.

   With a quiet wire the ack always lands on the first try: the
   resend checks find [acked] set and dissolve into no-op events —
   no simulated cycles, no counter traffic.  (The kernel still only
   arms them when a fault plan is active; see Tpal.) *)

open Iw_engine
open Iw_hw

let max_attempts = 5

(* The first timeout must comfortably exceed a healthy delivery:
   wire latency plus a few interrupt round trips of queueing on a
   busy target. *)
let first_timeout costs =
  (8 * costs.Platform.ipi_latency)
  + (4 * (costs.Platform.interrupt_dispatch + costs.Platform.interrupt_return))

let send s plat ~target ~handler ~after =
  let obs = Cpu.obs target in
  let acked = ref false in
  let handler ~preempted =
    acked := true;
    handler ~preempted
  in
  let d = Ipi.delivery s plat ~target ~handler ~after in
  let rec attempt n timeout =
    Ipi.send d;
    if n + 1 < max_attempts then
      Sim.schedule_after_unit s timeout (fun () ->
          if not !acked then begin
            Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Ipi_retry;
            if obs.Iw_obs.Obs.trace.Iw_obs.Trace.enabled then
              Iw_obs.Trace.instant obs.Iw_obs.Obs.trace ~name:"ipi_retry"
                ~cat:"kernel" ~cpu:(Cpu.id target) ~ts:(Sim.now s) ();
            attempt (n + 1) (timeout * 2)
          end)
  in
  attempt 0 (first_timeout plat.Platform.costs)
