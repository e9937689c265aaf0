(** The shared scheduler engine.

    A kernel instance owns the simulated CPUs of a platform and runs
    simulated threads on them under a given OS personality.  Threads
    are bound to a CPU at spawn (Nautilus style; benchmarks pin
    threads in the Linux configurations too), scheduled round-robin
    within two classes (real-time first), and preempted by a per-CPU
    scheduler tick.

    Thread code is either a {!Iw_engine.Coro} coroutine that talks to
    the kernel through the request wrappers in {!Api}, or a flat
    thread (below) that calls the kernel's entry points itself. *)

type t
type thread

type spawn_spec = {
  sp_name : string;
  sp_cpu : int option;  (** Binding; [None] = least-loaded CPU. *)
  sp_fp : bool;  (** Context switches move FP/vector state. *)
  sp_rt : bool;  (** Real-time scheduling class. *)
}

val default_spec : spawn_spec

(** {1 Kernel lifecycle} *)

val boot :
  ?obs:Iw_obs.Obs.t ->
  ?seed:int ->
  ?quantum_us:float ->
  personality:Os.t ->
  Iw_hw.Platform.t ->
  t
(** Create a kernel on a fresh simulator.  [quantum_us] (default 1000,
    i.e. 1 ms) is both the scheduler-tick period and the round-robin
    timeslice.  [obs] (default: the domain's ambient context) receives
    every typed counter bump and trace probe from the kernel and its
    CPUs. *)

val spawn : t -> ?spec:spawn_spec -> (unit -> unit) -> thread
(** Create a coroutine thread from outside the simulation (initial
    threads).  Inside thread code, use {!Api.spawn}. *)

val run : t -> unit
(** Start scheduler ticks and drive the simulation until every thread
    has exited.  Idempotent; ticks stop automatically when the last
    thread exits. *)

val run_until : t -> int -> unit
(** [run] stopped at a horizon: events due at or before it fire, later
    ones stay queued for the next call.  Allocation-free. *)

val sim : t -> Iw_engine.Sim.t
val platform : t -> Iw_hw.Platform.t
val personality : t -> Os.t
val cpu : t -> int -> Iw_hw.Cpu.t
val lapic : t -> int -> Iw_hw.Lapic.t
val cpu_count : t -> int

val counters : t -> Iw_obs.Counter.set
(** The kernel's typed counter cells (shared with its [obs]). *)

val obs : t -> Iw_obs.Obs.t
(** The observability context this kernel reports into. *)

val now : t -> int

val total_work_cycles : t -> int
(** Sum of [Work]-kind cycles across CPUs. *)

val total_overhead_cycles : t -> int
(** Sum of [Overhead]-kind plus interrupt-path cycles across CPUs. *)

(** {1 Synchronization objects}

    Created freely; their blocking operations are requests (see
    {!Api}) or flat entry points. *)

type mutex
type semaphore

val mutex : unit -> mutex
val semaphore : init:int -> semaphore

(** {1 Requests}

    The request constructors a coroutine thread performs; thread code
    normally uses {!Api}'s wrappers rather than performing these
    directly.  The unit-valued ones ([R_join], [R_sleep], [R_lock],
    [R_unlock], [R_sem_wait], [R_sem_post], [R_spin]) go through
    [Coro.request] and the thread's one continuation slot; the others
    are [Coro.query]s.  Work and overhead are not requests but
    [Coro.consume] and [Coro.overhead] pauses.  Any other request, or
    a [Coro.yield], raises [Invalid_argument] naming the thread.

    [R_spin (poll, until)] is an active wait served by the kernel
    itself: it grants [poll 0], [poll 1], ... cycles of overhead, one
    grant per poll, and checks [until ()] after each, resuming the
    coroutine once it holds.  Each poll is the grant a
    [Coro.overhead] pause would be, ticks cut it short the same way,
    and none of them resumes the coroutine, so the whole wait costs
    one pause.  [poll] must be positive. *)

type _ Iw_engine.Coro.Request.t +=
  | R_spawn : spawn_spec * (unit -> unit) -> thread Iw_engine.Coro.Request.t
  | R_join : thread -> unit Iw_engine.Coro.Request.t
  | R_now : int Iw_engine.Coro.Request.t
  | R_cpu : int Iw_engine.Coro.Request.t
  | R_sleep : int -> unit Iw_engine.Coro.Request.t
  | R_lock : mutex -> unit Iw_engine.Coro.Request.t
  | R_unlock : mutex -> unit Iw_engine.Coro.Request.t
  | R_sem_wait : semaphore -> unit Iw_engine.Coro.Request.t
  | R_sem_post : semaphore -> unit Iw_engine.Coro.Request.t
  | R_kernel : t Iw_engine.Coro.Request.t
  | R_spin : (int -> int) * (unit -> bool) -> unit Iw_engine.Coro.Request.t

(** {1 Flat threads}

    Every thread is a state machine: a count of cycles it is owed, the
    kind they are charged as, and a step function that runs once they
    are paid.  A flat thread's step is written by hand — a coroutine
    compiled into an explicit state struct, as closureiters does — and
    calls the [flat_*] entry points below.  A coroutine thread's step
    resumes its [Coro.t] to the next pause, and serves each request
    through the same entry points, so a coroutine thread and its
    hand-written flat twin give the same schedule, counters and latency
    tables.  What the flat thread saves is allocation: everything it
    needs is allocated at spawn, so steady-state scheduling allocates
    nothing on the minor heap.  A coroutine thread's pause allocates
    only the effect and the continuation OCaml makes for it.

    Contract: every [flat_*] call must be made from inside the
    thread's own step function (i.e. while it is Running), and the
    step function must end each activation with exactly one of them —
    continue ([flat_work] / [flat_overhead] / a non-blocking
    [flat_sem_wait] / [flat_sem_post]), park ([flat_sleep] / a
    blocking [flat_sem_wait]), or die ([flat_exit]). *)

type flat = thread

val spawn_flat : t -> ?spec:spawn_spec -> unit -> flat
(** Create a flat thread (from outside the simulation).  Set its step
    function with {!set_flat_step} before the simulator runs. *)

val set_flat_step : flat -> (unit -> unit) -> unit

val flat_work : t -> flat -> int -> unit
(** {!Api.work}: owe [n] work cycles, then step again. *)

val flat_overhead : t -> flat -> int -> unit
(** {!Api.overhead}: owe [n] overhead cycles, then step again. *)

val flat_sleep : t -> flat -> int -> unit
(** {!Api.sleep}: park for [dt] cycles; the next step runs after the
    wake, the wake latency and the sleep-arm cost. *)

val flat_sem_wait : t -> flat -> semaphore -> unit
(** {!Api.sem_wait}: take a count (paying the uncontended-sync cost)
    or park until posted. *)

val flat_sem_post : t -> flat -> semaphore -> unit
(** {!Api.sem_post}: wake a waiter (wake cost) or bump the count
    (uncontended-sync cost). *)

val sem_value : semaphore -> int
(** Current count (no waiters implied when positive). *)

val sem_clear : semaphore -> unit
(** Drop the count that posts no waiter took, so a semaphore nobody
    waits on can be reused from zero.  Free: no thread is charged. *)

val flat_exit : t -> flat -> unit
(** The thread's body is done: exit cost, joiner wakeups, live-count
    bookkeeping. *)

(** {1 Interrupt-context services}

    For device models and heartbeat drivers: called from interrupt
    handlers or simulator events, never from thread code. *)

val sem_signal : t -> semaphore -> unit
(** Post a semaphore from event context (a device RX path, a network
    delivery): wakes one waiter or banks the count.  Unlike
    {!flat_sem_post} there is no requesting thread, so no cost is
    charged to any CPU — the waiter still pays its wake latency. *)

val is_running : t -> int -> thread -> bool
(** [is_running t cpu th]: [th] is (or was, inside an interrupt
    handler: the preempted thread) what runs on [cpu]. *)

val stash_preempted : t -> int -> int -> unit
(** [stash_preempted t cpu remaining]: change what the thread an
    interrupt preempted on [cpu] is still owed to [remaining] cycles.
    The kernel already records what a preempted thread is owed when
    its CPU cuts the grant short, so only a handler that changes the
    amount calls this (a heartbeat promotion splitting off part of
    the running range). *)

val resched_or_resume : t -> int -> unit -> unit
(** [resched_or_resume t cpu] is [cpu]'s end-of-interrupt path, built
    once at boot: if higher-priority work is queued, preempt the
    interrupted thread, otherwise resume it.  Pass it as the [after]
    callback of {!Iw_hw.Cpu.interrupt}, so a delivery allocates no
    closure; an [after] that does more keeps it and calls it last
    ([resched_or_resume t cpu ()] in one call allocates a partial
    application under separate compilation). *)
