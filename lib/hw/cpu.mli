(** A simulated CPU core: a single execution slot with interrupts.

    A kernel model drives each core by issuing {e grants}: "run for
    [cycles], then call me back".  Interrupts injected with
    {!interrupt} preempt the current grant (unless it was issued
    uninterruptible), run a handler after the platform's dispatch
    cost, and then hand control back to the kernel, which decides
    whether to resume the preempted work or switch.  The core charges
    the dispatch and return costs itself: they come from the platform
    once, at {!create}, so no interrupt source carries them.

    Interrupts never nest: an interrupt arriving while a handler runs
    (or during an uninterruptible grant) is queued and delivered as
    soon as the core is interruptible again.  All costs are explicit
    cycles; the core keeps separate accounting of work, overhead, and
    interrupt cycles so experiments can report overhead percentages
    directly. *)

type t

type kind =
  | Work  (** Application/runtime useful work. *)
  | Overhead  (** Kernel bookkeeping: context switches, scheduling... *)

val create :
  ?obs:Iw_obs.Obs.t ->
  Iw_engine.Sim.t ->
  id:int ->
  interrupt_dispatch:int ->
  interrupt_return:int ->
  on_preempt:(int -> unit) ->
  t
(** [interrupt_dispatch] and [interrupt_return] are the platform's
    costs of the same names ({!Platform.costs}): every interrupt the
    core takes spends [interrupt_dispatch] busy cycles before its
    handler and [interrupt_return] after it.  A negative cost is
    refused with [Invalid_argument "Cpu.create: interrupt_dispatch
    must be >= 0"] (or [interrupt_return]).  [on_preempt r] runs
    whenever an interrupt cuts a grant short with [r] cycles still
    owed, before the handler: it is how the grant's owner (the
    kernel) records what the preempted work is still owed.  [obs]
    defaults to the domain's ambient observability context; the core
    bumps its typed counters and, when tracing is enabled, emits
    work/overhead/irq spans on its own track. *)

val obs : t -> Iw_obs.Obs.t

val id : t -> int
val busy : t -> bool

val grant :
  t ->
  cycles:int ->
  kind:kind ->
  uninterruptible:bool ->
  on_complete:(unit -> unit) ->
  unit
(** Give the core to a computation for [cycles] cycles.  The core must
    be idle.  [on_complete] fires when the full quantum has elapsed
    without preemption; if an interrupt preempts the grant first,
    [on_complete] is dropped and the interrupt handler receives the
    remaining cycle count instead.  All arguments are required — the
    old optional [?kind]/[?uninterruptible] boxed a [Some] on every
    call, and granting is the hottest edge in the stack.  Zero-cycle
    grants complete via a same-time event (never synchronously),
    keeping the control stack flat. *)

val interrupt :
  t -> handler:(preempted:int -> int) -> after:(unit -> unit) -> unit
(** Inject an interrupt.  When the core becomes interruptible the
    sequence is: [on_preempt] if a grant was cut short;
    [interrupt_dispatch] busy cycles; [handler ~preempted] runs (its
    return value is the handler's own cost in cycles; [preempted] is
    the remaining cycle count when a grant was cut short, or [-1] when
    the core was idle — an [int option] here would allocate on every
    preempting tick); [interrupt_return] busy cycles; then [after ()]
    with the core idle again.  Queued interrupts are delivered FIFO
    from a preallocated ring. *)

val work_cycles : t -> int
(** Total cycles granted as [Work] that actually elapsed. *)

val overhead_cycles : t -> int
(** Total cycles granted as [Overhead] that actually elapsed. *)

val irq_cycles : t -> int
(** Total cycles spent in dispatch + handler + return paths. *)
