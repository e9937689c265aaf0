(** The machine role of the service plane: per-worker bounded queues,
    doorbell semaphores, a local dispatch policy, the request arena,
    and one flat-state-machine worker per CPU executing request
    bodies through a backend (fiber or pooled virtines).

    Extracted from [Plane] so the same executor serves two callers:

    - {b Standalone} ([Plane.run]): the load generator lives on a
      frontend CPU of the same kernel, replies go to closed-loop
      client semaphores, and the stop protocol (generator done, all
      admitted completed) broadcasts doorbells so workers exit.
    - {b Fleet} ([Fleet.run]): requests arrive over the simulated
      network (injected from event context via {!Sched.sem_signal}),
      and completions pay a serialization cost then hand the reply to
      the fleet's outbox; workers never exit — the fleet loop simply
      stops advancing windows.

    The standalone path is byte-identical to the pre-extraction
    [Plane]: same creation order, same RNG streams, same flat-state
    transitions, zero minor-heap words per steady-state request. *)

open Iw_kernel

type backend =
  | Fiber_exec  (** Per-worker cooperative fiber runs each body. *)
  | Virtine_exec of { vconfig : Iw_virtine.Wasp.config; pool : int }
      (** Each request is a virtine call through one shared Wasp
          instance with a warm pool of [pool] contexts. *)

val backend_name : backend -> string

type mode =
  | Standalone of Sched.semaphore array
      (** Per-client reply semaphores (empty for open loops). *)
  | Fleet of { fm_tx_c : int; fm_respond : reply:int -> unit }
      (** Completions pay [fm_tx_c] serialization cycles, then
          [fm_respond] receives the arena's reply field (the front
          tier's request handle) at the post-serialization time. *)

type t

val create :
  k:Sched.t ->
  ?prefix:string ->
  ?watchdog:bool ->
  ?demand:Workload.demand ->
  ?demand_seed:int ->
  ?demand_scale:float ->
  workers:int ->
  order:Squeue.order ->
  queue_cap:int ->
  backend:backend ->
  work_us:float ->
  policy:Dispatch.policy ->
  dispatch_rng:Iw_engine.Rng.t ->
  wasp_seed:int ->
  mode:mode ->
  unit ->
  t
(** Builds queues, doorbells, dispatch state, histograms, the arena,
    the optional Wasp instance, and spawns [workers] flat worker
    threads pinned to CPUs [0..workers-1] (named ["<prefix>-w<i>"],
    default prefix ["serve"]).

    Captures the ambient fault plan: when it arms [Worker_hang], a
    worker about to pop with work waiting can hang (clocked sleep, or
    — fleet mode only — permanently exit), and, if [watchdog] (the
    default), a periodic sim timer scans for hung workers and steals
    their queued requests onto the shortest live peer (counted as
    [peer_steal], detection as [watchdog_fire]).  Unfaulted runs
    never arm the timer.  Under [Priority] order every pop draws;
    under [Fifo] a pop that draws covers the requests its doorbell
    already counts, at most seven beyond itself ([hang_run] = 8 in
    exec.ml), and the pops it covers draw nothing.

    [demand] (default [Dfixed]) draws a per-request service cost from
    a stateless hash of [(demand_seed, request id)], scaled by
    [demand_scale] (the fleet passes [1/speed], matching its scaled
    [work_us]). *)

val try_enqueue : t -> intended:int -> hi:bool -> arrival:int -> reply:int -> int
(** Pick a queue by the local policy, allocate an arena slot, push.
    On success bumps the kernel's [service_admitted] (and
    [service_hi_prio]) counters and returns the queue index — the
    caller must post that doorbell ([flat]/coroutine submit paths
    pay their own cost; network RX uses {!Sched.sem_signal}).  On a
    full queue frees the slot and returns [-1].  [intended] (default
    -1 = none) is the open-loop intended send cycle, recorded for
    coordinated-omission-corrected latency ({!h_corrected}). *)

val doorbells : t -> Sched.semaphore array
(** One per worker, indexed like the queues {!try_enqueue} picks. *)

val depth : t -> int
(** Requests queued across the workers — the signal a machine gossips
    to the fleet balancer. *)

val busy_cycles : t -> int

val end_generation : t -> bool
(** Standalone stop protocol: the load generator calls this when its
    arrivals are exhausted.  Marks generation done; if every admitted
    request has completed and no stop is under way, flips the
    executor to stopping, runs the {!set_on_stop} hook, disarms the
    hang watchdog, and returns [true] — the caller must then post
    every doorbell so idle workers exit.  Otherwise returns [false]
    and the last completion stops the executor itself.  Admissions
    and completions are read from the kernel's typed counters
    ([service_admitted], [service_completions]), the only record of
    either. *)

val set_on_stop : t -> (unit -> unit) -> unit
(** Hook fired the moment the executor stops.  [Plane] uses it to
    disarm its telemetry sampler timer, which would otherwise keep
    the drained simulator alive past the run's natural end. *)

val h_queue : t -> Hist.t
(** Queue wait, arrival to execution start, of every request run. *)

val h_service : t -> Hist.t
(** Execution start to completion. *)

val h_total : t -> Hist.t
(** Arrival to completion. *)

val h_corrected : t -> Hist.t
(** Sojourn time measured from the *intended* send cycle for requests
    that recorded one — the coordinated-omission-corrected view of
    {!h_total}. *)

val arena_capacity : t -> int
val arena_grows : t -> int
val wasp : t -> Iw_virtine.Wasp.t option

val set_slowdown : t -> int -> unit
(** Brownout hook: multiply subsequent work grants by [x/1000]
    (1000 = full speed).  Clamped to >= 1. *)
