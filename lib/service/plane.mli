(** The service plane: open/closed-loop load over the simulated stack.

    A plane boots a kernel ({!Iw_kernel.Sched}) under an OS
    personality, pins one worker thread per CPU plus a dedicated
    frontend CPU for load generation, and drives requests through
    bounded per-worker queues ({!Squeue}) chosen by a dispatch policy
    ({!Dispatch}).  Request bodies execute through a real layer of the
    stack — a cooperative fiber per worker, or virtine calls through a
    shared Wasp instance (pool hits matter) — so the personality's
    costs and noise land where they do on real systems: in the tail.

    Latency decomposes per request into queue wait, service time, and
    total (arrival to completion), each recorded in one {!Hist} for
    the machine, which the report holds as it is.

    Determinism: arrivals, dispatch, priority draws, and think times
    each use a dedicated stream split from [seed lxor 0x5E21CE], so
    the arrival sequence is independent of kernel-side draws and a
    report is byte-reproducible from [config] alone. *)

type os = Nk | Linux

val os_name : os -> string
val os_of_string : string -> os option

val personality : os -> Iw_hw.Platform.t -> Iw_kernel.Os.t
(** The kernel personality an [os] boots: {!Iw_kernel.Os.nautilus} or
    {!Iw_kernel.Os.linux}. *)

type backend = Exec.backend =
  | Fiber_exec  (** Per-worker cooperative fiber runs each body. *)
  | Virtine_exec of { vconfig : Iw_virtine.Wasp.config; pool : int }
      (** Each request is a virtine call through one shared Wasp
          instance with a warm pool of [pool] contexts. *)

val backend_name : backend -> string

type config = {
  os : os;
  plat : Iw_hw.Platform.t;  (** Core count is overridden to workers+1. *)
  workers : int;
  workload : Workload.spec;
  policy : Dispatch.policy;
  order : Squeue.order;
  queue_cap : int;
  backend : backend;
  work_us : float;  (** Request body service demand. *)
  hi_frac : float;  (** Fraction of requests marked high priority. *)
  demand : Workload.demand;
      (** Per-request cost distribution; [Dfixed] = every body costs
          [work_us]. *)
  seed : int;
}

val default : plat:Iw_hw.Platform.t -> config
(** Nautilus-like, 8 workers, Poisson 20k rps for 100 ms, po2
    dispatch, FIFO order, cap 64, fiber backend, 150 us bodies. *)

type report = {
  rep_os : string;
  rep_backend : string;
  rep_policy : string;
  rep_order : string;
  rep_workload : string;
  rep_offered_rps : float;
  rep_duration_us : float;
  rep_ghz : float;
  rep_arrivals : int;
  rep_admitted : int;
  rep_completed : int;
  rep_shed : int;  (** Drop-tail refusals (open loop). *)
  rep_backpressure : int;  (** Full-queue retries (closed loop). *)
  rep_elapsed_cycles : int;
  rep_busy_cycles : int;
  rep_throughput_rps : float;
  rep_utilization : float;
  rep_pool_hits : int;  (** Virtine backend only. *)
  rep_spawns : int;
  rep_run_minor_words : float;
      (** OCaml minor-heap words allocated during the run phase (load
          + service; setup and readout excluded), counted exactly by
          [Gc.minor_words] on the running domain.  Divide by
          [rep_completed] for the per-request allocation profile. *)
  rep_run_major_words : float;
      (** Major-heap words, same window.  Caveat: [Gc.quick_stat]
          folds in stats from terminated sibling domains, so this is
          only a clean per-run figure when nothing else runs
          concurrently in the process (the [serve] CLI; not the
          [--jobs N] experiment driver). *)
  rep_arena_capacity : int;  (** Request-arena high-water capacity. *)
  rep_arena_grows : int;
      (** Times the request arena doubled — stops moving once the
          in-flight high-water mark is reached, however many requests
          flow through. *)
  rep_queue : Hist.t;  (** Queue-wait cycles. *)
  rep_service : Hist.t;  (** Service cycles. *)
  rep_total : Hist.t;  (** Arrival-to-completion cycles. *)
  rep_total_corrected : Hist.t;
      (** Total latency measured from each request's *intended*
          (drawn) send time instead of its actual submit time — the
          coordinated-omission correction for open-loop load.  Empty
          for closed loops. *)
  rep_steals : int;
      (** Requests the hang watchdog moved to live peers (0 unless a
          fault plan arms [worker-hang]). *)
  rep_series : Iw_obs.Series.t option;
      (** Windowed telemetry sampled every ambient period
          ([Iw_obs.Series.set_period_us]) of virtual time ([None] when
          the period is 0): arrival/admission/completion/shed deltas,
          queue depth, and windowed p50/p99 total latency (cycles).
          Also {!Iw_obs.Series.publish}ed for trace exporters. *)
}

val run : config -> report
(** Run to completion (the generator finishes and every admitted
    request completes).  @raise Invalid_argument, naming the field, on
    a config without workers or clients, or with a queue bound
    (at most {!Squeue.max_cap}), body cost or high-priority fraction
    outside the range of [serve]'s matching flag. *)

val percentile_us : report -> Hist.t -> float -> float
val mean_us : report -> Hist.t -> float
