(** The interweaving model's public face: composing a custom
    hardware/software stack from per-layer choices.

    A {!t} names a choice at each layer the paper argues should be
    interwoven — kernel, memory regime, timing mechanism, event
    delivery — plus the platform underneath.  {!commodity} is the
    layered status quo; {!interwoven} is the paper's stack.  [boot]
    turns the description into a runnable kernel; the accessors
    expose the layer objects so runtimes (heartbeat, OpenMP, fibers,
    CARAT) can be attached. *)

type os_choice = Nautilus | Linux

type memory_choice =
  | Demand_paging  (** Commodity: base pages, faults, TLB pressure. *)
  | Carat  (** Compiler/runtime translation, no paging (§IV-A). *)

type timing_choice =
  | Hardware_timer  (** Interrupt-driven preemption. *)
  | Compiler_timed of { check_budget : int }  (** §IV-C. *)

type event_choice =
  | Signal_chain  (** Commodity user-level delivery (§IV-B right). *)
  | Ipi_broadcast  (** Kernel-level LAPIC broadcast (§IV-B left). *)

type t = {
  platform : Iw_hw.Platform.t;
  os : os_choice;
  memory : memory_choice;
  timing : timing_choice;
  events : event_choice;
}

val commodity : Iw_hw.Platform.t -> t
(** Linux, demand paging, hardware timers, signal chains. *)

val interwoven : Iw_hw.Platform.t -> t
(** Nautilus, CARAT memory, compiler timing, IPI broadcast. *)

val describe : t -> string

val boot : ?seed:int -> t -> Iw_kernel.Sched.t
(** A kernel of this stack's personality on its platform, with the
    default 1 ms quantum. *)

val event_delivery_cycles : t -> int
(** Cost of delivering one asynchronous event to running code under
    this stack's event layer. *)

val timer_mechanism_cost : t -> int
(** Per-preemption mechanism cost implied by the timing layer (the
    interrupt path, or the injected check + framework call). *)
