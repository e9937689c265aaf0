(** The shared scheduler engine.

    A kernel instance owns the simulated CPUs of a platform and runs
    simulated threads (coroutines) on them under a given OS
    personality.  Threads are bound to a CPU at spawn (Nautilus
    style; benchmarks pin threads in the Linux configurations too),
    scheduled round-robin within two classes (real-time first), and
    preempted by a per-CPU scheduler tick.

    Thread code runs inside {!Iw_engine.Coro} coroutines and talks to
    the kernel through the request wrappers in {!Api}. *)

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
(** Create a thread from outside the simulation (initial threads).
    Inside thread code, use {!Api.spawn}. *)

val run : ?horizon:int -> t -> unit
(** Start scheduler ticks and drive the simulation until every thread
    has exited (or the optional horizon is reached).  Idempotent
    ticks stop automatically when the last thread exits. *)

val sim : t -> Iw_engine.Sim.t
val platform : t -> Iw_hw.Platform.t
val personality : t -> Os.t
val cpu : t -> int -> Iw_hw.Cpu.t
val lapic : t -> int -> Iw_hw.Lapic.t
val cpu_count : t -> int
val rng : t -> Iw_engine.Rng.t

val counters : t -> Iw_obs.Counter.set
(** The kernel's typed counter cells (shared with its [obs]). *)

val obs : t -> Iw_obs.Obs.t
(** The observability context this kernel reports into. *)

val now : t -> int

val total_work_cycles : t -> int
(** Sum of [Work]-kind cycles across CPUs. *)

val total_overhead_cycles : t -> int
(** Sum of [Overhead]-kind plus interrupt-path cycles across CPUs. *)

(** {1 Thread handles} *)

val thread_id : thread -> int

(** {1 Synchronization objects}

    Created freely; their blocking operations are requests (see
    {!Api}). *)

type mutex
type cond
type semaphore

val mutex : unit -> mutex
val cond : unit -> cond
val semaphore : init:int -> semaphore

(** {1 Requests}

    The request constructors interpreted by this engine.  Thread code
    normally uses {!Api}'s wrappers rather than performing these
    directly. *)

type _ Iw_engine.Coro.Request.t +=
  | R_spawn : spawn_spec * (unit -> unit) -> thread Iw_engine.Coro.Request.t
  | R_join : thread -> unit Iw_engine.Coro.Request.t
  | R_now : int Iw_engine.Coro.Request.t
  | R_self : thread Iw_engine.Coro.Request.t
  | R_cpu : int Iw_engine.Coro.Request.t
  | R_sleep : int -> unit Iw_engine.Coro.Request.t
  | R_lock : mutex -> unit Iw_engine.Coro.Request.t
  | R_unlock : mutex -> unit Iw_engine.Coro.Request.t
  | R_cond_wait : cond * mutex -> unit Iw_engine.Coro.Request.t
  | R_cond_signal : cond -> unit Iw_engine.Coro.Request.t
  | R_cond_broadcast : cond -> unit Iw_engine.Coro.Request.t
  | R_sem_wait : semaphore -> unit Iw_engine.Coro.Request.t
  | R_sem_post : semaphore -> unit Iw_engine.Coro.Request.t
  | R_rand : int -> int Iw_engine.Coro.Request.t
  | R_overhead : int -> unit Iw_engine.Coro.Request.t
  | R_kernel : t Iw_engine.Coro.Request.t

(** {1 Flat threads}

    A flat thread is a thread compiled by hand into an explicit state
    struct — the closureiters transform applied to this engine.  Its
    step function never performs effects; instead it calls the
    [flat_*] kernel entry points below, each of which mirrors the
    corresponding coroutine request cost-for-cost and event-for-event.
    Swapping a coroutine thread for an equivalent flat thread is
    invisible to the simulation (schedules, counters and latency
    distributions are byte-identical); what changes is the allocation
    profile: everything a flat thread needs is allocated at spawn, so
    steady-state scheduling allocates nothing on the minor heap.

    Contract: every [flat_*] call must be made from inside the
    thread's own step function (i.e. while it is Running), and the
    step function must end each activation with exactly one of them —
    continue ([flat_work] / [flat_overhead] / [flat_continue]), park
    ([flat_sleep] / a blocking [flat_sem_wait]), or die
    ([flat_exit]). *)

type flat

val spawn_flat : t -> ?spec:spawn_spec -> unit -> flat
(** Create a flat thread (from outside the simulation).  Set its step
    function with {!set_flat_step} before the simulator runs. *)

val set_flat_step : flat -> (unit -> unit) -> unit

val flat_work : t -> flat -> int -> unit
(** {!Api.work}: owe [n] work cycles, then step again. *)

val flat_overhead : t -> flat -> int -> unit
(** {!Api.overhead}: owe [n] overhead cycles, then step again. *)

val flat_sleep : t -> flat -> int -> unit
(** {!Api.sleep}: park for [dt] cycles; the next step activation runs
    after the wake (wake latency and sleep-arm cost included, as for
    coroutines). *)

val flat_sem_wait : t -> flat -> semaphore -> unit
(** {!Api.sem_wait}: take a count (paying the uncontended-sync cost)
    or park until posted. *)

val flat_sem_take : t -> flat -> semaphore -> unit
(** The non-blocking half of {!flat_sem_wait}: the caller has already
    checked {!sem_value}[ > 0]. *)

val flat_sem_post : t -> flat -> semaphore -> unit
(** {!Api.sem_post}: wake a waiter (wake cost) or bump the count
    (uncontended-sync cost). *)

val sem_value : semaphore -> int
(** Current count (no waiters implied when positive). *)

val flat_exit : t -> flat -> unit
(** The thread's body is done: exit exactly as a finished coroutine
    (exit cost, joiner wakeups, live-count bookkeeping). *)

(** {1 Interrupt-context services}

    For device models and heartbeat drivers: called from interrupt
    handlers or simulator events, never from thread code. *)

val sem_signal : t -> semaphore -> unit
(** Post a semaphore from event context (a device RX path, a network
    delivery): wakes one waiter or banks the count.  Unlike
    {!flat_sem_post} there is no requesting thread, so no cost is
    charged to any CPU — the waiter still pays its wake latency. *)

val current_thread : t -> int -> thread option
(** What is (or was) running on a CPU — valid inside interrupt
    handlers to identify the preempted thread. *)

val stash_preempted : t -> int -> int -> unit
(** [stash_preempted t cpu remaining]: record that the running
    thread's current quantum was cut short with [remaining] cycles
    owed.  Interrupt handlers that received [~preempted:(Some r)]
    must call this before the kernel resumes the thread. *)

val resched_or_resume : t -> int -> unit
(** Standard end-of-interrupt path: if higher-priority work is queued,
    preempt the interrupted thread, otherwise resume it.  Use as the
    [after] callback of {!Iw_hw.Cpu.interrupt}. *)
