(** Kernel-level event signaling (Nemo) for Nautilus.

    Nautilus (§III) is the streamlined kernel framework the paper's
    interweaving examples build on: a {!Sched} kernel booted with
    {!Os.nautilus} has no kernel/user distinction, per-CPU run queues,
    direct interrupt vectoring, and identity-mapped memory. *)

(** Nemo-style remote events: signal a handler on another CPU via
    IPI, the mechanism that makes NK event signaling orders of
    magnitude faster than Linux user-space mechanisms (§III, §IV-B). *)
module Nemo : sig
  val signal :
    Sched.t -> target_cpu:int -> handler:(unit -> unit) -> unit
  (** Inject the event now (from simulator/interrupt context): after
      IPI latency the handler runs on [target_cpu] in interrupt
      context, then the interrupted thread is resumed or rescheduled. *)
end
