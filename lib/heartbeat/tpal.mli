(** TPAL: heartbeat scheduling for latent parallelism (§IV-B).

    The programmer exposes all parallelism as splittable ranges; the
    compiler emits the sequential variant plus promotion points; the
    runtime {e promotes} latent parallelism — splits the oldest
    remaining half of a running range into a stealable task — only
    when a heartbeat arrives.  Work-stealing workers execute the
    ranges.  The heartbeat keeps the task-creation overhead
    proportional to the heartbeat rate instead of the work's
    recursion structure, which is the provable-bounds insight of
    heartbeat scheduling.

    Two signal drivers reproduce Figure 3's comparison:

    - {!Nk_ipi}: one LAPIC timer on CPU 0, broadcast by IPI to every
      worker — the Nautilus mechanism (Fig. 2 left);
    - {!Linux_signal}: one POSIX interval timer + signal chain per
      worker — the Linux mechanism (Fig. 2 right), which jitters and
      coalesces under fine heartbeats. *)

type range = { items : int; grain : int  (** cycles per item *) }

type bench = { bench_name : string; ranges : range list }

val spmv : bench

val suite : bench list
(** The six-benchmark heartbeat suite (after the TPAL paper's). *)

val total_items : bench -> int
val total_work : bench -> int

type driver = Nk_ipi | Linux_signal

type config = {
  workers : int;
  heartbeat_us : float;
  driver : driver;
  seed : int;
}

type report = {
  bench : string;
  os : string;
  workers : int;
  heartbeat_us : float;
  elapsed_cycles : int;
  work_cycles : int;
  overhead_cycles : int;  (** Kernel overhead + interrupt paths. *)
  overhead_pct : float;  (** overhead / (work + overhead). *)
  promotions : int;
  steals : int;
  deliveries : int;  (** Heartbeats that actually ran on a worker. *)
  target_rate_hz : float;
  achieved_rate_hz : float;  (** Per-worker delivery rate. *)
  rate_cv : float;  (** Coefficient of variation of inter-heartbeat
                        gaps: 0 = perfectly steady. *)
  speedup_vs_serial : float;
}

val run : ?promote_div:int -> Iw_hw.Platform.t -> config -> bench -> report
(** Boot the kernel implied by the driver, execute the benchmark under
    heartbeat scheduling, and report.  Deterministic per seed.
    [promote_div] (default 2, the TPAL policy) controls promotion
    aggressiveness: a heartbeat splits off 1/div of the remaining
    range. *)
