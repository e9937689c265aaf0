(** Fleet serving: N simulated machines behind a load-balancing front
    tier, connected by the {!Net} link model.

    Each machine is a full {!Exec} stack (own kernel, OS personality,
    platform costs, queues, workers) normalized onto one fleet clock;
    heterogeneity comes from the personality, the cost tables, the
    worker count, and a per-machine body-speed multiplier.  The front
    tier turns {!Workload} arrivals into requests, picks a machine by
    a {!Dispatch} policy over *gossiped* queue depths (the signal
    itself travels over the modeled network, so queue-aware policies
    act on stale information), and recovers from network faults with
    timeout-driven retries and streak-based ejection.  Within each
    machine, dispatch is po2.  The recovery constants (4 ms RTO, 3
    retries, eject after 3 consecutive timeouts for 2 ms) and the wire
    sizes (512 B requests, 256 B responses, 64 B gossip) are fixed;
    fleet.ml documents each.  The NIC's ring and the driver's budget
    and periods are fixed in {!Iw_hw.Nic} and {!Iw_kernel.Nic_driver}.

    {b Determinism.}  Machines advance in conservative time windows
    of W = one link latency: no message sent inside a window can be
    delivered in the same window, so each machine's event stream is
    independent of the others' progress within a window.  At the
    barrier the coordinator routes every outbox message in canonical
    order (send time, source node, submission order) and schedules
    deliveries into the next window.  Running machines on one domain
    or several therefore produces byte-identical results; a parallel
    run draws faults only on the coordinator, at barriers or in the
    front tier.  A routed message, a timer and a window allocate
    nothing.  See DESIGN §9. *)

type mspec = {
  ms_name : string;  (** per-machine identity in tables and spans *)
  ms_os : Plane.os;
  ms_plat : Iw_hw.Platform.t;  (** clock is overridden to the fleet's *)
  ms_workers : int;
  ms_speed : float;  (** request-body speedup vs the fleet baseline *)
}

val knl_spec : ?workers:int -> unit -> mspec
(** KNL-like box: Nautilus personality, 8 workers, speed 1.0. *)

val server_spec : ?workers:int -> unit -> mspec
(** Server-like box: Linux personality on [server_2x12] costs,
    4 workers, speed 2.5 (faster cores, fewer of them). *)

type config = {
  fc_machines : mspec array;
  fc_workload : Workload.spec;  (** open-loop only *)
  fc_policy : Dispatch.policy;  (** balancer, across machines *)
  fc_order : Squeue.order;
  fc_queue_cap : int;
  fc_backend : Exec.backend;
  fc_work_us : float;
  fc_hi_frac : float;
  fc_net : Net.config;
  fc_gossip_us : float;  (** queue-depth gossip period; 0 disables *)
  fc_slo_us : float;  (** end-to-end latency SLO; 0 disables accounting *)
  fc_slo_target : float;
      (** Good-fraction target for burn-rate columns (e.g. 0.999). *)
  fc_watchdog : bool;
      (** Arm per-machine hang watchdogs (peer stealing) when the
          ambient fault plan arms [worker-hang].  Default [true]; the
          R5 experiment toggles it off to expose the raw damage. *)
  fc_corrupt_retry : bool;
      (** Re-execute responses the fault plan marks corrupt (counted
          [corrupt_retry], bounded by the retry budget).  With it off
          a corrupt response completes but can never be SLO-good. *)
  fc_bw_wjsq : bool;
      (** Brownout-aware balancing: weight the front-tier wjsq pick
          by a leaky integrator of each machine's observed completions
          per window instead of its nominal [workers x speed]. *)
  fc_hedge_frac : float;
      (** Hedge still-outstanding requests onto a second machine after
          this fraction of [fc_deadline_us]; first response wins, the
          loser is counted [hedge_cancel].  0 (default) disables. *)
  fc_hedge_budget : float;
      (** Global hedge budget as a fraction of arrivals so far. *)
  fc_admit : bool;
      (** SLO-aware admission control: shed an arrival (counted
          [admission_shed], an SLO miss) when even the least-loaded
          live machine's predicted wait — gossiped depth x EWMA
          sojourn / workers — exceeds the deadline. *)
  fc_deadline_us : float;
      (** Per-request deadline driving hedging and admission; 0
          disables both regardless of their own knobs. *)
  fc_demand : Workload.demand;
      (** Per-request service cost distribution, drawn from a
          stateless hash of the front-tier request id so retries and
          hedges of one request cost the same on every machine. *)
  fc_nic : bool;
      (** Deliver front->machine traffic through each machine's
          simulated {!Iw_hw.Nic} (RX descriptor ring + driver in
          [fc_nic_mode]) and responses through its TX ring, instead of
          the direct PR 7 path.  Default [false]: the device does not
          exist and every schedule is byte-identical to before. *)
  fc_nic_mode : Iw_kernel.Nic_driver.mode;
      (** irq, poll, or hybrid (default) *)
  fc_itr_us : float;
      (** ITR interrupt-moderation gap in virtual us; 0 = unmoderated. *)
  fc_seed : int;
}

val default : unit -> config
(** Two KNL-like machines, Poisson 100k rps for 50 ms, po2 balancer,
    20 us bodies, {!Net.default}, 50 us gossip. *)

type report = {
  fr_machines : int;
  fr_policy : string;
  fr_local_policy : string;
  fr_backend : string;
  fr_workload : string;
  fr_offered_rps : float;
  fr_duration_us : float;
  fr_ghz : float;
  fr_window_cycles : int;  (** W, the conservative sync window *)
  fr_windows : int;
  fr_arrivals : int;
  fr_completed : int;
  fr_failed : int;  (** retries exhausted *)
  fr_retries : int;
  fr_nacks : int;  (** machine drop-tail refusals, retried *)
  fr_net_msgs : int;
  fr_net_drops : int;
  fr_gossip_msgs : int;
  fr_ejects : int;
  fr_elapsed_cycles : int;
  fr_throughput_rps : float;
  fr_utilization : float;  (** busy cycles over fleet worker-cycles *)
  fr_total : Hist.t;  (** end-to-end: arrival to front-side response *)
  fr_queue : Hist.t;  (** machine-local queue wait, merged over machines *)
  fr_service : Hist.t;  (** machine-local service time, merged over machines *)
  fr_m_names : string array;
  fr_m_completed : int array;
  fr_m_busy : int array;
  fr_m_counters : (string * int) list array;
      (** per-machine nonzero counter totals, for
          {!Interweave.Machine.Fleet.counter_table}-style views *)
  fr_slo_good : int;
      (** Responses within [fc_slo_us] (0 when accounting is off). *)
  fr_slo_total : int;
      (** SLO-eligible outcomes: responses, exhausted-retry failures,
          and admission sheds.  good/total is the achieved success
          fraction. *)
  fr_hedges : int;  (** hedge copies sent *)
  fr_hedge_wins : int;  (** requests whose hedge copy answered first *)
  fr_hedge_cancels : int;  (** losing copies that came home late *)
  fr_admission_shed : int;  (** arrivals shed at the door *)
  fr_corrupt_retries : int;  (** corrupt responses re-executed *)
  fr_steals : int;  (** requests watchdogs moved off hung workers *)
  fr_brownouts : int;  (** brownout episodes injected *)
  fr_nic_rx : int;  (** frames landed in RX rings (fleet total) *)
  fr_nic_drops : int;  (** frames lost at the device: faults + overruns *)
  fr_nic_irqs : int;  (** RX interrupts delivered *)
  fr_nic_polls : int;  (** poll-engine checks *)
  fr_nic_empty_polls : int;  (** checks that found no frames *)
  fr_nic_wasted_cycles : int;  (** power proxy: cycles burned by empty checks *)
  fr_nic_switches : int;  (** hybrid IRQ->poll transitions *)
  fr_nic_recovers : int;  (** lost interrupts re-injected by the driver *)
  fr_nic_tx : int;  (** responses drained through TX rings *)
  fr_series : Iw_obs.Series.t option;
      (** Fleet timeline, sampled at conservative-window barriers on
          the coordinator every ambient period
          ({!Iw_obs.Series.set_period_us}) of virtual time ([None]
          when the period is 0):
          arrival/completion/failure/retry/network deltas, SLO window
          counts with burn rate, windowed e2e p50/p99 (cycles), and
          per-machine depth gauges and completion deltas.  Identical
          for serial and parallel runs (DESIGN §10).  Also
          {!Iw_obs.Series.publish}ed for trace exporters. *)
}

val run : ?parallel:bool -> config -> report
(** A parallel run cuts the machines into contiguous blocks, one per
    domain: the calling domain runs the front tier and the first
    block, and [min n (Domain.recommended_domain_count ()) - 1] helper
    domains run the others.  [parallel] defaults to [true] when
    called from the main domain with tracing off, and to [false]
    otherwise (nested experiment drivers, traced runs); a serial run
    is the same loop with no helpers.  Both are byte-identical.
    @raise Invalid_argument, naming the field, on a config it cannot
    run: an empty machine array, a closed-loop workload, a machine
    without workers or speed, or a value outside the range of
    [serve]'s matching flag. *)

val burn : target:float -> good:int -> total:int -> float
(** SLO burn rate: the bad fraction [(total - good) / total] over the
    error budget [1 - target]; 0 when [total <= 0].  1.0 burns exactly
    the budget. *)

val burn_x1000 : target:float -> good:int -> total:int -> int
(** {!burn} ×1000, truncated to an int.  The series' [burn_x1000]
    column applies it per window, and [serve] to a whole run. *)

val percentile_us : report -> Hist.t -> float -> float
