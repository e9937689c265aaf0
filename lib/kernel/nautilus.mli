(** Nautilus boot helpers and kernel-level event signaling (Nemo).

    Nautilus (§III) is the streamlined kernel framework the paper's
    interweaving examples build on.  Booting with this module gives a
    {!Sched} kernel with the Nautilus personality: no kernel/user
    distinction, per-CPU run queues, direct interrupt vectoring, and
    identity-mapped memory. *)

val boot :
  ?seed:int -> ?quantum_us:float -> Iw_hw.Platform.t -> Sched.t

val address_space : Iw_hw.Platform.t -> Iw_mem.Address_space.t
(** The identity-mapped, largest-page-size address space Nautilus sets
    up at boot. *)

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
