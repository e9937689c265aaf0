(** TPAL: heartbeat scheduling for latent parallelism (§IV-B).

    The programmer exposes parallelism without paying for it: the
    compiler emits the sequential variant plus promotion points, and
    the runtime {e promotes} latent parallelism into a stealable task
    only when a heartbeat arrives.  Work-stealing workers execute the
    tasks.  The heartbeat keeps the task-creation overhead
    proportional to the heartbeat rate instead of the work's
    recursion structure, which is the provable-bounds insight of
    heartbeat scheduling.

    One runtime serves two task shapes, which differ only in how a
    worker finds local work, what it steals, and what a beat promotes:

    - ranges ({!run}): parallel loops; a beat splits off part of the
      running range;
    - fork-join trees ({!Tree.run}): every fork starts latent; a beat
      promotes one latent frame.

    Both share the steal loop, the supervisor, the signal drivers and,
    under an active fault plan, resending IPIs and a watchdog that
    falls back to software polling.  Two signal drivers reproduce
    Figure 3's comparison:

    - {!Nk_ipi}: one LAPIC timer on CPU 0, fanned out by one IPI per
      other worker — the Nautilus mechanism (Fig. 2 left);
    - {!Linux_signal}: one POSIX interval timer + signal chain per
      worker — the Linux mechanism (Fig. 2 right), which jitters and
      coalesces under fine heartbeats.  Ranges only. *)

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
(** [promotions], [steals] and [deliveries] are read from the kernel's
    [promotions], [steals] and [heartbeats] counters. *)

val run : ?promote_div:int -> Iw_hw.Platform.t -> config -> bench -> report
(** Boot the kernel implied by the driver, execute the benchmark under
    heartbeat scheduling, and report.  Deterministic per seed.
    [promote_div] (default 2, the TPAL policy) controls promotion
    aggressiveness: a heartbeat splits off 1/div of the remaining
    range. *)

(** Nested fork-join programs: the recursive case the heartbeat
    papers are actually proved for.  Every potential fork starts out
    {e latent} — executed in-line, depth-first, like a sequential
    program — and a heartbeat {e promotes} one latent frame into a
    real, stealable task.

    The promotion rule matters: heartbeat scheduling promotes the
    {b oldest} latent frame (the shallowest unforked call), which
    yields large tasks, few promotions, and the provable bounds.
    {!policy} exposes promote-newest as the ablation foil (many small
    tasks, more steals).  Trees run on the Nautilus driver; their
    counts live in the report, not in typed counters. *)
module Tree : sig
  type node = { work : int; children : (unit -> node) list }
  (** A tree node: [work] cycles of sequential body, then the (lazily
      generated) children, each a latent fork. *)

  type bench = { tree_name : string; root : unit -> node }

  val fib : int -> bench
  (** The canonical heartbeat benchmark: binary recursion of depth
      [n], 90 cycles per inner node and 400 per leaf. *)

  val total_nodes : bench -> int
  val total_work : bench -> int
  (** Both force the whole tree once (the trees are deterministic). *)

  type policy = Promote_oldest | Promote_newest

  type config = {
    workers : int;
    heartbeat_us : float;
    policy : policy;
    seed : int;
  }

  type report = {
    bench : string;
    policy : policy;
    workers : int;
    elapsed_cycles : int;
    nodes_run : int;
    promotions : int;
    steals : int;
    overhead_pct : float;
    speedup_vs_serial : float;
  }

  val run : Iw_hw.Platform.t -> config -> bench -> report
  (** Nautilus stack (LAPIC + IPI heartbeats), deterministic per
      seed. *)
end
