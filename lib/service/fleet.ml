(* Fleet serving: N machines behind a balancing front tier.  See
   fleet.mli for the model and the determinism argument. *)

open Iw_engine
open Iw_kernel
module Plan = Iw_faults.Plan
module Counter = Iw_obs.Counter
module Obs = Iw_obs.Obs
module Trace = Iw_obs.Trace
module Series = Iw_obs.Series

type mspec = {
  ms_name : string;
  ms_os : Plane.os;
  ms_plat : Iw_hw.Platform.t;
  ms_workers : int;
  ms_speed : float;
}

let knl_spec ?(workers = 8) () =
  {
    ms_name = "knl";
    ms_os = Plane.Nk;
    ms_plat = Iw_hw.Platform.knl;
    ms_workers = workers;
    ms_speed = 1.0;
  }

let server_spec ?(workers = 4) () =
  {
    ms_name = "srv";
    ms_os = Plane.Linux;
    ms_plat = Iw_hw.Platform.server_2x12;
    ms_workers = workers;
    ms_speed = 2.5;
  }

type config = {
  fc_machines : mspec array;
  fc_workload : Workload.spec;
  fc_policy : Dispatch.policy;
  fc_order : Squeue.order;
  fc_queue_cap : int;
  fc_backend : Exec.backend;
  fc_work_us : float;
  fc_hi_frac : float;
  fc_net : Net.config;
  fc_gossip_us : float;
  fc_slo_us : float;  (* end-to-end latency SLO; 0 disables accounting *)
  fc_slo_target : float;  (* good fraction target, e.g. 0.999 *)
  (* Graceful degradation (ISSUE 9).  Every knob defaults to the
     PR 8 behavior so existing goldens cannot move. *)
  fc_watchdog : bool;  (* hang watchdogs + peer stealing on machines *)
  fc_corrupt_retry : bool;  (* re-execute corrupted responses *)
  fc_bw_wjsq : bool;  (* weight wjsq by observed completion rate *)
  fc_hedge_frac : float;  (* hedge at this fraction of the deadline; 0 off *)
  fc_hedge_budget : float;  (* max hedges as a fraction of arrivals *)
  fc_admit : bool;  (* SLO-aware admission control at the front tier *)
  fc_deadline_us : float;  (* per-request deadline (hedging/admission) *)
  fc_demand : Workload.demand;  (* per-request service cost distribution *)
  (* Simulated NIC (ISSUE 10).  Off by default: front->machine frames
     bypass the device and delivery is exactly the PR 7 path. *)
  fc_nic : bool;  (* deliver front->machine traffic through the NIC *)
  fc_nic_mode : Nic_driver.mode;
  fc_itr_us : float;  (* ITR moderation gap in us; 0 = unmoderated *)
  fc_seed : int;
}

(* Fixed for every fleet: no caller has needed another value. *)

(* Dispatch within each machine (the balancer's is [fc_policy]). *)
let local_policy = Dispatch.Po2

(* Front-side retry timeout per attempt. *)
let rto_us = 4_000.0

(* Retries before a request fails; corrupt-response re-execution
   draws on the same budget. *)
let max_retries = 3

(* Consecutive timeouts before a machine is ejected, and how long an
   ejected machine sits out. *)
let eject_streak = 3
let eject_us = 2_000.0

(* Wire size of each message kind, in bytes (responses and nacks share
   one size). *)
let req_bytes = 512
let resp_bytes = 256
let gossip_bytes = 64

let default () =
  {
    fc_machines = [| knl_spec (); knl_spec () |];
    fc_workload = Workload.Poisson { rps = 100_000.0; duration_us = 50_000.0 };
    fc_policy = Dispatch.Po2;
    fc_order = Squeue.Fifo;
    fc_queue_cap = 64;
    fc_backend = Exec.Fiber_exec;
    fc_work_us = 20.0;
    fc_hi_frac = 0.0;
    fc_net = Net.default;
    fc_gossip_us = 50.0;
    fc_slo_us = 0.0;
    fc_slo_target = 0.999;
    fc_watchdog = true;
    fc_corrupt_retry = true;
    fc_bw_wjsq = false;
    fc_hedge_frac = 0.0;
    fc_hedge_budget = 0.1;
    fc_admit = false;
    fc_deadline_us = 0.0;
    fc_demand = Workload.Dfixed;
    fc_nic = false;
    fc_nic_mode = Nic_driver.Hybrid;
    fc_itr_us = 0.0;
    fc_seed = 42;
  }

type report = {
  fr_machines : int;
  fr_policy : string;
  fr_local_policy : string;
  fr_backend : string;
  fr_workload : string;
  fr_offered_rps : float;
  fr_duration_us : float;
  fr_ghz : float;
  fr_window_cycles : int;
  fr_windows : int;
  fr_arrivals : int;
  fr_completed : int;
  fr_failed : int;
  fr_retries : int;
  fr_nacks : int;
  fr_net_msgs : int;
  fr_net_drops : int;
  fr_gossip_msgs : int;
  fr_ejects : int;
  fr_elapsed_cycles : int;
  fr_throughput_rps : float;
  fr_utilization : float;
  fr_total : Hist.t;
  fr_queue : Hist.t;
  fr_service : Hist.t;
  fr_m_names : string array;
  fr_m_completed : int array;
  fr_m_busy : int array;
  fr_m_counters : (string * int) list array;
  fr_slo_good : int;
  fr_slo_total : int;
  fr_hedges : int;
  fr_hedge_wins : int;
  fr_hedge_cancels : int;
  fr_admission_shed : int;
  fr_corrupt_retries : int;
  fr_steals : int;
  fr_brownouts : int;
  (* NIC rollup across machines; all zero when fc_nic is off. *)
  fr_nic_rx : int;
  fr_nic_drops : int;
  fr_nic_irqs : int;
  fr_nic_polls : int;
  fr_nic_empty_polls : int;
  fr_nic_wasted_cycles : int;
  fr_nic_switches : int;
  fr_nic_recovers : int;
  fr_nic_tx : int;
  fr_series : Iw_obs.Series.t option;
}

let us_of_cycles rep c = float_of_int c /. (rep.fr_ghz *. 1e3)
let percentile_us rep h p = us_of_cycles rep (Hist.percentile h p)

(* Front-tier RNG streams live on their own salt so machine-side
   draws (each kernel's own streams) can never perturb arrivals. *)
let rng_salt = 0xF1EE7

(* A fault plan arming machine-internal kinds (TLB, IPI, virtine,
   worker hangs...) draws from the plan's RNG inside machine kernels,
   which only stays deterministic when machines share the
   coordinator's domain.  Kinds drawn at the front tier or at
   barriers (links, pauses, brownouts, response corruption) are
   coordinator-only and stay parallel-safe. *)
let plan_needs_serial plan =
  let coordinator_only =
    Plan.[ Link_drop; Link_delay; Machine_pause; Machine_brownout; Req_corrupt ]
  in
  List.exists
    (fun k -> Plan.armed plan k && not (List.mem k coordinator_only))
    Plan.all_kinds

(* ------------------------------------------------------------------ *)
(* Payload pools

   A routed message or a front-tier timer is a recycled record: the
   handler of its kind and two int words.  Each record builds its
   firing closure once, so posting one through [Sim.schedule_unit]
   allocates nothing once the pool has warmed up.  There is one pool
   per simulator.  A machine's pool is filled by the coordinator at
   the barrier and drained inside the window by the domain that runs
   the machine, never both at once. *)

type payload = {
  mutable p_handler : int -> int -> unit;
  mutable p_a : int;
  mutable p_b : int;
  mutable p_next : payload;  (* free-list link *)
  mutable p_fire : unit -> unit;
}

let rec nil_payload =
  {
    p_handler = (fun _ _ -> ());
    p_a = 0;
    p_b = 0;
    p_next = nil_payload;
    p_fire = ignore;
  }

type pool = { pl_sim : Sim.t; mutable pl_free : payload }

let pool sim = { pl_sim = sim; pl_free = nil_payload }

let fire pl p =
  let handler = p.p_handler and a = p.p_a and b = p.p_b in
  p.p_next <- pl.pl_free;
  pl.pl_free <- p;
  handler a b

(* [handler a b] at cycle [at] on the pool's simulator. *)
let post pl ~at handler a b =
  let p = pl.pl_free in
  let p =
    if p != nil_payload then begin
      pl.pl_free <- p.p_next;
      p
    end
    else begin
      let p =
        { p_handler = handler; p_a = a; p_b = b; p_next = nil_payload; p_fire = ignore }
      in
      p.p_fire <- (fun () -> fire pl p);
      p
    end
  in
  p.p_handler <- handler;
  p.p_a <- a;
  p.p_b <- b;
  Sim.schedule_unit pl.pl_sim ~at p.p_fire

(* ------------------------------------------------------------------ *)
(* Window handoff

   The coordinator and each helper domain wait for the other through
   one [Atomic] word: spin on it for a bounded while, then park on a
   mutex and condition variable.  A waiter raises [pk_parked] under
   the mutex before its last look at the word; a publisher writes the
   word before it reads the flag.  Atomics are sequentially
   consistent, so either the waiter sees the new word or the publisher
   sees the flag and signals under the mutex: no wake-up is lost.

   Spinning only pays while both sides hold a core.  When the host is
   oversubscribed the side being waited for may not be running at
   all, and every full spin is a core's worth of time stolen from it.
   So a waiter whose last [miss_limit] waits all ended parked parks
   at once, except that one wait in [probe_every] spins the full
   budget to find out whether the cores came back.  A single park is
   no such sign: one slow window or one preempted core causes it. *)

(* [Domain.cpu_relax] rounds in a full spin: about 0.1 ms on a 2-core
   x86 host (22 ns a round), a few windows' work. *)
let spin_limit = 4_096
let miss_limit = 2
let probe_every = 256

type parking = {
  pk_mu : Mutex.t;
  pk_cv : Condition.t;
  pk_parked : bool Atomic.t;
  (* the waiter's own history; only the waiter touches these *)
  mutable pk_waits : int;
  mutable pk_misses : int;  (* consecutive waits that ended parked *)
}

let parking () =
  {
    pk_mu = Mutex.create ();
    pk_cv = Condition.create ();
    pk_parked = Atomic.make false;
    pk_waits = 0;
    pk_misses = 0;
  }

(* Wait until [a] no longer holds [old]; return what it holds. *)
let await pk a old =
  pk.pk_waits <- pk.pk_waits + 1;
  let budget =
    if pk.pk_misses < miss_limit || pk.pk_waits mod probe_every = 0 then spin_limit
    else 0
  in
  let spins = ref 0 in
  while Atomic.get a = old && !spins < budget do
    Domain.cpu_relax ();
    incr spins
  done;
  if Atomic.get a = old then begin
    pk.pk_misses <- pk.pk_misses + 1;
    Mutex.lock pk.pk_mu;
    Atomic.set pk.pk_parked true;
    while Atomic.get a = old do
      Condition.wait pk.pk_cv pk.pk_mu
    done;
    Atomic.set pk.pk_parked false;
    Mutex.unlock pk.pk_mu
  end
  else pk.pk_misses <- 0;
  Atomic.get a

(* Store [v] in [a] and wake its waiter if that waiter parked. *)
let publish pk a v =
  Atomic.set a v;
  if Atomic.get pk.pk_parked then begin
    Mutex.lock pk.pk_mu;
    Condition.signal pk.pk_cv;
    Mutex.unlock pk.pk_mu
  end

(* A helper domain and the contiguous block of machines it owns.
   [hp_cmd] carries the horizon of the window to run (horizons only
   grow, so each is its own sequence number) or -1 to exit; [hp_done]
   the horizon last finished.  [hp_failed] is written before
   [hp_done] is published, so the coordinator sees it. *)
type helper = {
  hp_lo : int;
  hp_hi : int;
  hp_cmd : int Atomic.t;
  hp_park : parking;  (* the helper's own, waiting for [hp_cmd] *)
  hp_done : int Atomic.t;
  mutable hp_failed : exn option;
}

(* ------------------------------------------------------------------ *)
(* Nodes

   One machine: a full Exec stack on its own kernel, its NIC and driver
   when the fleet has them, its outbox and the pool its deliveries come
   from — all that a window touches, on whichever domain runs it.  The
   coordinator touches the outbox, the pool, the pause flag and the
   Exec's slowdown only at the barrier. *)
type node = {
  n_k : Sched.t;
  n_ex : Exec.t;
  n_nic : (Iw_hw.Nic.t * Nic_driver.t) option;
  n_outbox : Net.msgbuf;
  n_pool : pool;
  n_on_req : int -> int -> unit;  (* a request message arrives *)
  n_cpu_base : int;  (* global CPU offset for trace identity *)
  mutable n_paused : bool;  (* skip the next window (fault) *)
}

(* A machine-side count (admissions, completions, steals), read from
   the one place it is kept: the machine kernel's typed counters. *)
let ncount nd id = Counter.get (Sched.counters nd.n_k) id

let make_node cfg ~ghz ~cyc ~tr m =
  let spec = cfg.fc_machines.(m) in
  let plat =
    Iw_hw.Platform.with_cores
      { spec.ms_plat with Iw_hw.Platform.ghz }
      spec.ms_workers
  in
  let k =
    Sched.boot ~seed:(cfg.fc_seed + (101 * (m + 1)))
      ~personality:(Plane.personality spec.ms_os plat)
      plat
  in
  let costs = plat.Iw_hw.Platform.costs in
  let tx_c =
    costs.Iw_hw.Platform.atomic_rmw + costs.Iw_hw.Platform.cache_line_remote
  in
  let outbox = Net.mb_create () in
  let sim = Sched.sim k in
  let send_resp ~a ~b =
    Net.mb_push outbox ~kind:Net.k_resp ~dst:(-1) ~a ~b ~t:(Sim.now sim)
  in
  (* Opt-in NIC path: a device on the machine's own simulator.
     Creating it schedules nothing, so it can come before Exec. *)
  let nic =
    if cfg.fc_nic then
      Some (Iw_hw.Nic.create ~obs:(Sched.obs k) ~sim (cyc cfg.fc_itr_us))
    else None
  in
  let respond =
    match nic with
    | None -> fun ~reply -> send_resp ~a:reply ~b:m
    | Some nic ->
        (* Through the TX ring: the frame reaches the outbox when its
           descriptor finishes serializing (on_tx below).  A full ring
           loses the response; the front tier's RTO retry is the
           recovery, one layer up. *)
        Iw_hw.Nic.set_on_tx nic send_resp;
        fun ~reply -> ignore (Iw_hw.Nic.tx_push nic ~a:reply ~b:m)
  in
  let dispatch_rng =
    Rng.create ~seed:((cfg.fc_seed + (7919 * (m + 1))) lxor rng_salt)
  in
  let ex =
    Exec.create ~k
      ~prefix:(Printf.sprintf "m%d-%s" m spec.ms_name)
      ~watchdog:cfg.fc_watchdog ~demand:cfg.fc_demand
        (* one fleet-wide demand seed: a request costs the same cycles
           wherever a retry or hedge lands it *)
      ~demand_seed:(cfg.fc_seed + 23)
      ~demand_scale:(1.0 /. spec.ms_speed)
      ~workers:spec.ms_workers ~order:cfg.fc_order ~queue_cap:cfg.fc_queue_cap
      ~backend:cfg.fc_backend
      ~work_us:(cfg.fc_work_us /. spec.ms_speed)
      ~policy:local_policy ~dispatch_rng
      ~wasp_seed:(cfg.fc_seed + 17 + (1000 * (m + 1)))
      ~mode:(Exec.Fleet { fm_tx_c = tx_c; fm_respond = respond })
      ()
  in
  let gossip_c = cyc cfg.fc_gossip_us in
  if gossip_c > 0 then begin
    let rec tick () =
      Net.mb_push outbox ~kind:Net.k_gossip ~dst:(-1) ~a:(Exec.depth ex) ~b:m
        ~t:(Sim.now sim);
      Sim.schedule_after_unit sim gossip_c tick
    in
    Sim.schedule_unit sim ~at:gossip_c tick
  end;
  (* A request reaching the machine, by wire or through the NIC
     driver: (a = request id, b = packed attempt/hi). *)
  let rx id b =
    let now = Sim.now sim in
    (* Runs inside the machine's window (cpu_base set for it), so this
       step lands on the machine's first worker process — the hop that
       carries the flow across the network boundary. *)
    if Trace.flows_enabled tr then
      Trace.flow tr ~name:"req" ~phase:Trace.flow_step ~id ~cpu:0 ~ts:now ();
    let qi =
      Exec.try_enqueue ex ~intended:(-1) ~hi:(b land 1 = 1) ~arrival:now ~reply:id
    in
    if qi >= 0 then Sched.sem_signal k (Exec.doorbells ex).(qi)
    else begin
      Counter.incr (Sched.counters k) Counter.Service_shed;
      Net.mb_push outbox ~kind:Net.k_nack ~dst:(-1) ~a:id ~b:(b asr 1) ~t:now
    end
  in
  (* The driver comes after Exec and the gossip tick, keeping each
     machine's scheduling order; its handler is exactly [rx]. *)
  let nic, on_req =
    match nic with
    | None -> (None, rx)
    | Some nic ->
        let drv =
          Nic_driver.create ~k ~nic cfg.fc_nic_mode ~handler:(fun ~a ~b -> rx a b)
        in
        (Some (nic, drv), fun a b -> ignore (Iw_hw.Nic.rx_push nic ~a ~b))
  in
  {
    n_k = k;
    n_ex = ex;
    n_nic = nic;
    n_outbox = outbox;
    n_pool = pool sim;
    n_on_req = on_req;
    n_cpu_base =
      Array.fold_left (fun b s -> b + s.ms_workers) 0 (Array.sub cfg.fc_machines 0 m);
    n_paused = false;
  }

(* Advance machines [lo, hi) to horizon [h]: all that a window runs on
   a domain.  Loops, not [Array.iter]: a closure over [h] would
   allocate every window. *)
let run_block nodes tr lo hi h =
  for m = lo to hi - 1 do
    let nd = nodes.(m) in
    if not nd.n_paused then begin
      if Trace.enabled tr then Trace.set_cpu_base tr nd.n_cpu_base;
      Sched.run_until nd.n_k h;
      if Trace.enabled tr then Trace.set_cpu_base tr 0
    end
  done

(* ------------------------------------------------------------------ *)
(* The front tier, on the coordinator domain only.  Its counts live in
   its typed counters, except [f_completed] and [f_slo_good], which
   have none. *)
type front = {
  f_cfg : config;
  f_n : int;
  f_sim : Sim.t;
  f_obs : Obs.t;  (* the front's counters; coordinator faults count here *)
  f_tr : Trace.t;
  f_plan : Plan.t;
  f_pool : pool;
  f_outbox : Net.msgbuf;
  (* The request table, one slot per admitted request.  Monotone —
     slots are never recycled, so a late duplicate response can never
     be misread as a different request's.  Memory is linear in
     arrivals, which a bounded-duration run keeps small. *)
  mutable f_nreq : int;
  mutable f_arrival : int array;
  mutable f_state : int array;  (* 0 in flight, 1 done, 2 failed *)
  mutable f_retries : int array;
  mutable f_machine : int array;
  mutable f_hmachine : int array;  (* hedge copy's machine; -1 = none *)
  mutable f_hi : int array;
  f_gen : Workload.gen;
  f_prio_rng : Rng.t;
  f_bal : Dispatch.t;
  f_view : int array;  (* gossiped queue depth per machine *)
  f_weights : int array;  (* nominal capacity per machine *)
  f_obs_w : int array;  (* observed completions per window, leaky *)
  f_prev_comp : int array;
  f_cand : int array;  (* the balancer's candidate machines *)
  f_up : Net.link array;  (* front -> machine *)
  f_down : Net.link array;  (* machine -> front *)
  f_streak : int array;  (* consecutive timeouts per machine *)
  f_ejected_until : int array;
  f_slow_until : int array;  (* brownout expiry cycle; 0 = full speed *)
  f_rto_c : int;
  f_eject_c : int;
  f_deadline_c : int;  (* 0 disables hedging and admission control *)
  f_hedge_c : int;  (* 0 = hedging off *)
  f_slo_c : int;  (* 0 = SLO accounting off *)
  f_e2e : Hist.t;
  mutable f_completed : int;
  mutable f_slo_good : int;
  mutable f_ewma_svc_c : int;  (* EWMA of end-to-end sojourn *)
  mutable f_gen_done : bool;
  (* Built once: the arrival event, a handler per pooled message or
     timer kind, the balancer's probes.  One per use would allocate. *)
  f_arrive : unit -> unit;
  f_on_timeout : int -> int -> unit;
  f_on_hedge : int -> int -> unit;
  f_on_resp : int -> int -> unit;
  f_on_gossip : int -> int -> unit;
  f_on_nack : int -> int -> unit;
  f_cand_len : int -> int;
  f_cand_weight : (int -> int) option;
}

let fcount f id = Counter.get f.f_obs.Obs.counters id
let fincr f id = Counter.incr f.f_obs.Obs.counters id

let new_request f ~arrival ~hi =
  if f.f_nreq = Array.length f.f_arrival then begin
    let g a = Array.append a (Array.make (Array.length a) 0) in
    f.f_arrival <- g f.f_arrival;
    f.f_state <- g f.f_state;
    f.f_retries <- g f.f_retries;
    f.f_machine <- g f.f_machine;
    f.f_hmachine <- g f.f_hmachine;
    f.f_hi <- g f.f_hi
  end;
  let id = f.f_nreq in
  f.f_arrival.(id) <- arrival;
  f.f_state.(id) <- 0;
  f.f_retries.(id) <- 0;
  f.f_machine.(id) <- -1;
  f.f_hmachine.(id) <- -1;
  f.f_hi.(id) <- (if hi then 1 else 0);
  f.f_nreq <- id + 1;
  id

(* Requests admitted and not yet answered or failed. *)
let outstanding f = f.f_nreq - f.f_completed - fcount f Counter.Service_failed

(* SLO-eligible outcomes: besides responses, a failed request and one
   shed at the door count against the SLO, with no good side. *)
let slo_total f =
  if f.f_slo_c = 0 then 0
  else f.f_completed + fcount f Counter.Service_failed + fcount f Counter.Admission_shed

(* hedge copies carry a sentinel attempt so machine nacks for them
   never feed the retry state machine *)
let hedge_att = 0x3FFFFF

let live f m now = f.f_ejected_until.(m) <= now

(* The live machines other than [skip], into [f_cand]; returns how many. *)
let gather_live f now ~skip =
  let nc = ref 0 in
  for m = 0 to f.f_n - 1 do
    if m <> skip && live f m now then begin
      f.f_cand.(!nc) <- m;
      incr nc
    end
  done;
  !nc

let pick f nc =
  f.f_cand.(Dispatch.pick f.f_bal ?weight:f.f_cand_weight ~n:nc ~len:f.f_cand_len)

let send_attempt f id attempt =
  let now = Sim.now f.f_sim in
  let nc = gather_live f now ~skip:(-1) in
  (* everyone ejected: no choice but to try them all again (at
     [max_int] every ejection has expired) *)
  let m = pick f (if nc > 0 then nc else gather_live f max_int ~skip:(-1)) in
  f.f_machine.(id) <- m;
  (* The request id keys the Chrome flow: "s" here at the origin, "t"
     at each retry hop, so the front tier anchors the causal chain the
     machine-side steps extend. *)
  if Trace.flows_enabled f.f_tr then
    Trace.flow f.f_tr ~name:"req"
      ~phase:(if attempt = 0 then Trace.flow_start else Trace.flow_step)
      ~id ~cpu:(-1) ~ts:now ();
  Net.mb_push f.f_outbox ~kind:Net.k_req ~dst:m ~a:id
    ~b:((attempt lsl 1) lor f.f_hi.(id))
    ~t:now;
  post f.f_pool ~at:(now + f.f_rto_c) f.f_on_timeout id attempt;
  if f.f_hedge_c > 0 && attempt = 0 then
    post f.f_pool ~at:(now + f.f_hedge_c) f.f_on_hedge id 0

let retry f id =
  if f.f_retries.(id) >= max_retries then begin
    f.f_state.(id) <- 2;
    fincr f Counter.Service_failed
  end
  else begin
    f.f_retries.(id) <- f.f_retries.(id) + 1;
    fincr f Counter.Net_retries;
    send_attempt f id f.f_retries.(id)
  end

let on_timeout f id attempt =
  (* Only the newest attempt can time out; a response or nack in the
     meantime either finished the request or already retried. *)
  if f.f_state.(id) = 0 && f.f_retries.(id) = attempt then begin
    let m = f.f_machine.(id) in
    f.f_streak.(m) <- f.f_streak.(m) + 1;
    if f.f_streak.(m) >= eject_streak then begin
      f.f_ejected_until.(m) <- Sim.now f.f_sim + f.f_eject_c;
      f.f_streak.(m) <- 0;
      fincr f Counter.Machine_ejects
    end;
    retry f id
  end

(* Hedge once per request, against a global budget (a fraction of
   arrivals so far), onto a live machine other than the primary.  The
   hedge copy gets no RTO of its own: the primary's timeout still
   guards the request.  (The ignored word gives the timer the (a, b)
   shape of every pooled handler.) *)
let on_hedge f id (_ : int) =
  if
    f.f_state.(id) = 0
    && f.f_hmachine.(id) < 0
    && fcount f Counter.Hedge_sent
       < int_of_float
           (f.f_cfg.fc_hedge_budget *. float_of_int (fcount f Counter.Service_arrivals))
  then begin
    let now = Sim.now f.f_sim in
    let nc = gather_live f now ~skip:f.f_machine.(id) in
    if nc > 0 then begin
      let m = pick f nc in
      f.f_hmachine.(id) <- m;
      fincr f Counter.Hedge_sent;
      if Trace.enabled f.f_tr then
        Trace.instant f.f_tr ~name:"recover:hedge" ~cat:"service" ~cpu:(-1) ~ts:now ();
      Net.mb_push f.f_outbox ~kind:Net.k_req ~dst:m ~a:id
        ~b:((hedge_att lsl 1) lor f.f_hi.(id))
        ~t:now
    end
  end

let complete f ~corrupt id m =
  f.f_state.(id) <- 1;
  f.f_streak.(m) <- 0;
  f.f_completed <- f.f_completed + 1;
  let now = Sim.now f.f_sim in
  let lat = now - f.f_arrival.(id) in
  Hist.record f.f_e2e lat;
  if f.f_deadline_c > 0 then
    f.f_ewma_svc_c <- f.f_ewma_svc_c + ((lat - f.f_ewma_svc_c) asr 4);
  (* a response is SLO-good iff it met the bound; an accepted-but-
     corrupt one never is *)
  if f.f_slo_c > 0 && (not corrupt) && lat <= f.f_slo_c then
    f.f_slo_good <- f.f_slo_good + 1;
  if f.f_hmachine.(id) >= 0 && m = f.f_hmachine.(id) then
    fincr f Counter.Hedge_won;
  if Trace.flows_enabled f.f_tr then
    Trace.flow f.f_tr ~name:"req" ~phase:Trace.flow_finish ~id ~cpu:(-1) ~ts:now ()

let on_resp f id m =
  if f.f_state.(id) = 0 then begin
    let corrupt =
      Plan.armed f.f_plan Plan.Req_corrupt
      && Plan.fire f.f_plan f.f_obs ~kind:Plan.Req_corrupt ~cpu:m ~ts:(Sim.now f.f_sim)
    in
    if corrupt && f.f_cfg.fc_corrupt_retry then begin
      (* garbage answer: burn the work and re-execute, bounded by the
         ordinary retry budget *)
      fincr f Counter.Corrupt_retry;
      if Trace.enabled f.f_tr then
        Trace.instant f.f_tr ~name:"recover:reexec" ~cat:"service" ~cpu:(-1)
          ~ts:(Sim.now f.f_sim) ();
      retry f id
    end
    else complete f ~corrupt id m
  end
  else if f.f_state.(id) = 1 && f.f_hmachine.(id) >= 0 then
    (* the losing copy of a hedged request coming home late *)
    fincr f Counter.Hedge_cancel

(* [packed] is the nacked attempt times the fleet size plus the
   machine, so one handler serves every source. *)
let on_nack f id packed =
  let attempt = packed / f.f_n and m = packed mod f.f_n in
  fincr f Counter.Net_nacks;
  f.f_streak.(m) <- 0;
  (* a nack proves the machine is alive, just full — retry now rather
     than waiting out the RTO.  A nacked hedge copy just dies: the
     primary attempt still owns the request. *)
  if attempt <> hedge_att && f.f_state.(id) = 0 && f.f_retries.(id) = attempt
  then retry f id

let on_gossip f depth m =
  f.f_view.(m) <- depth;
  fincr f Counter.Gossip_msgs

(* Admission control: the predicted wait on a live machine is its
   gossiped depth x EWMA sojourn / workers.  If even the best machine
   would blow the deadline, shed at the door instead of queueing a
   request that is already dead. *)
let admitted f now =
  (not f.f_cfg.fc_admit) || f.f_deadline_c = 0
  ||
  let best = ref max_int in
  for m = 0 to f.f_n - 1 do
    if live f m now then begin
      let p = f.f_view.(m) * f.f_ewma_svc_c / f.f_cfg.fc_machines.(m).ms_workers in
      if p < !best then best := p
    end
  done;
  !best = max_int || !best <= f.f_deadline_c

let schedule_next f =
  let at = Workload.next_cycles f.f_gen in
  if at < 0 then f.f_gen_done <- true
  else Sim.schedule_unit f.f_sim ~at:(max at (Sim.now f.f_sim)) f.f_arrive

let arrive f =
  let now = Sim.now f.f_sim in
  fincr f Counter.Service_arrivals;
  if admitted f now then begin
    let hi = Rng.chance f.f_prio_rng f.f_cfg.fc_hi_frac in
    send_attempt f (new_request f ~arrival:now ~hi) 0
  end
  else begin
    (* a shed request is still an SLO miss ([slo_total]): degradation
       must not launder the error budget *)
    fincr f Counter.Admission_shed;
    if Trace.enabled f.f_tr then
      Trace.instant f.f_tr ~name:"recover:shed" ~cat:"service" ~cpu:(-1) ~ts:now ()
  end;
  schedule_next f

(* Brownout-aware wjsq's weights, read at the barrier: a leaky
   integrator of each machine's completions per window — a machine at
   1/3 speed earns 1/3 the weight, whatever its gossiped depth claims. *)
let observe_completions f nodes =
  for m = 0 to f.f_n - 1 do
    let c = ncount nodes.(m) Counter.Service_completions in
    let d = c - f.f_prev_comp.(m) in
    f.f_prev_comp.(m) <- c;
    f.f_obs_w.(m) <- f.f_obs_w.(m) - (f.f_obs_w.(m) asr 3) + d
  done

let make_front cfg ~ghz ~cyc ~w_c ~obs ~plan =
  let n = Array.length cfg.fc_machines in
  let sim = Sim.create ~seed:(cfg.fc_seed lxor 0xF401) () in
  let base = Rng.create ~seed:(cfg.fc_seed lxor rng_salt) in
  let arrival_rng = Rng.split base in
  let balancer_rng = Rng.split base in
  let prio_rng = Rng.split base in
  let gen = Workload.gen cfg.fc_workload ~rng:arrival_rng ~ghz in
  let deadline_c = cyc cfg.fc_deadline_us in
  let weight s =
    max 1 (int_of_float (float_of_int s.ms_workers *. s.ms_speed *. 16.0))
  in
  let per_machine () = Array.make n 0 and table () = Array.make 1024 0 in
  let rec f =
    {
      f_cfg = cfg;
      f_n = n;
      f_sim = sim;
      f_obs = obs;
      f_tr = obs.Obs.trace;
      f_plan = plan;
      f_pool = pool sim;
      f_outbox = Net.mb_create ();
      f_nreq = 0;
      f_arrival = table ();
      f_state = table ();
      f_retries = table ();
      f_machine = table ();
      f_hmachine = table ();
      f_hi = table ();
      f_gen = gen;
      f_prio_rng = prio_rng;
      f_bal = Dispatch.create cfg.fc_policy ~rng:balancer_rng;
      f_view = per_machine ();
      f_weights = Array.map weight cfg.fc_machines;
      f_obs_w = per_machine ();
      f_prev_comp = per_machine ();
      f_cand = per_machine ();
      f_up = Array.init n (fun _ -> Net.link cfg.fc_net ~ghz);
      f_down = Array.init n (fun _ -> Net.link cfg.fc_net ~ghz);
      f_streak = per_machine ();
      f_ejected_until = per_machine ();
      f_slow_until = per_machine ();
      f_rto_c = max (w_c + 1) (cyc rto_us);
      f_eject_c = cyc eject_us;
      f_deadline_c = deadline_c;
      f_hedge_c =
        (if cfg.fc_hedge_frac > 0.0 && deadline_c > 0 then
           max 1 (int_of_float (float_of_int deadline_c *. cfg.fc_hedge_frac))
         else 0);
      f_slo_c = cyc cfg.fc_slo_us;
      f_e2e = Hist.create ();
      f_completed = 0;
      f_slo_good = 0;
      f_ewma_svc_c = max 1 (cyc cfg.fc_work_us);  (* the nominal body cost *)
      f_gen_done = false;
      f_arrive = (fun () -> arrive f);
      f_on_timeout = (fun id attempt -> on_timeout f id attempt);
      f_on_hedge = (fun id b -> on_hedge f id b);
      f_on_resp = (fun id m -> on_resp f id m);
      f_on_gossip = (fun depth m -> on_gossip f depth m);
      f_on_nack = (fun id packed -> on_nack f id packed);
      f_cand_len = (fun j -> f.f_view.(f.f_cand.(j)));
      f_cand_weight =
        Some
          (fun j ->
            let m = f.f_cand.(j) in
            if cfg.fc_bw_wjsq then max 1 f.f_obs_w.(m) else f.f_weights.(m));
    }
  in
  schedule_next f;
  f

(* ------------------------------------------------------------------ *)
(* The conservative window loop

   The machines are cut into contiguous blocks, one per domain: block
   0 runs on the coordinator after the front tier's window, every other
   block on a helper domain.  Nothing crosses between the front and the
   machines inside a window, so they overlap; a serial fleet is the
   zero-helper case.  The barrier's fault draws and route, and the
   sampler, run on the coordinator while the machines are quiescent. *)
type window = {
  w_len : int;  (* W cycles, one link latency *)
  w_block0 : int;  (* machines [0, w_block0) run on the coordinator *)
  w_coord : parking;  (* the coordinator's, waiting for each helper *)
  w_helpers : helper array;
  w_domains : unit Domain.t array;
  w_srcs : Net.msgbuf array;  (* source 0 is the front, m + 1 machine m *)
  w_cur : int array;  (* next message per source *)
  w_act : int array;  (* sources with messages left, in source order *)
  mutable w_brownouts : int;
  w_sample_c : int;  (* sampling period; 0 = no series *)
  mutable w_series : Series.t option;
  mutable w_burn_good : int;  (* SLO counts at the previous sample *)
  mutable w_burn_total : int;
  mutable w_elapsed : int;  (* a whole number of windows *)
}

let rec helper_loop nodes tr coord hp last =
  let h = await hp.hp_park hp.hp_cmd last in
  if h > 0 then begin
    (try run_block nodes tr hp.hp_lo hp.hp_hi h with e -> hp.hp_failed <- Some e);
    publish coord hp.hp_done h;
    helper_loop nodes tr coord hp h
  end

(* Route message [i] of source [src]: a link fault may drop or delay
   it; its delivery is a pooled record on the receiving simulator. *)
let route_one f nodes src buf i h =
  let kind = buf.Net.mb_kind.(i) in
  let dst = buf.Net.mb_dst.(i) in
  let a = buf.Net.mb_a.(i) in
  let b = buf.Net.mb_b.(i) in
  let t = buf.Net.mb_t.(i) in
  let plan = f.f_plan in
  if Plan.enabled plan && Plan.fire plan f.f_obs ~kind:Plan.Link_drop ~cpu:src ~ts:t
  then fincr f Counter.Net_drops
  else begin
    let extra =
      if Plan.enabled plan
         && Plan.fire plan f.f_obs ~kind:Plan.Link_delay ~cpu:src ~ts:t
      then Plan.net_delay_cycles
      else 0
    in
    let link = if kind = Net.k_req then f.f_up.(dst) else f.f_down.(src - 1) in
    let bytes =
      if kind = Net.k_req then req_bytes
      else if kind = Net.k_gossip then gossip_bytes
      else resp_bytes
    in
    let d = Net.route link ~send:t ~bytes ~extra in
    (* conservative clamp: never deliver into the closing window *)
    let at = if d < h then h else d in
    fincr f Counter.Net_msgs;
    if kind = Net.k_req then post nodes.(dst).n_pool ~at nodes.(dst).n_on_req a b
    else if kind = Net.k_resp then post f.f_pool ~at f.f_on_resp a b
    else if kind = Net.k_gossip then post f.f_pool ~at f.f_on_gossip a b
    else post f.f_pool ~at f.f_on_nack a ((b * f.f_n) + src - 1)
  end

(* Canonical order: send time, then source, then per-source submission
   order — independent of how machines were spread over domains.
   Every outbox is already sorted by send time (see [Net.mb_push]), so
   that order is a k-way merge of the n + 1 runs: repeatedly route the
   earliest head, the lowest source on a tie. *)
let head w s = w.w_srcs.(s).Net.mb_t.(w.w_cur.(s))

let route_all w f nodes h =
  let srcs = w.w_srcs and cur = w.w_cur and act = w.w_act in
  let na = ref 0 in
  for s = 0 to Array.length srcs - 1 do
    cur.(s) <- 0;
    if srcs.(s).Net.mb_n > 0 then begin
      act.(!na) <- s;
      incr na
    end
  done;
  while !na > 0 do
    let best = ref 0 in
    for j = 1 to !na - 1 do
      if head w act.(j) < head w act.(!best) then best := j
    done;
    let s = act.(!best) in
    let i = cur.(s) in
    route_one f nodes s srcs.(s) i h;
    cur.(s) <- i + 1;
    if i + 1 = srcs.(s).Net.mb_n then begin
      Array.blit act (!best + 1) act !best (!na - !best - 1);
      decr na
    end
  done;
  Array.iter Net.mb_clear srcs

let barrier w f nodes h =
  let plan = f.f_plan in
  (* machine pauses draw first, in machine order *)
  if Plan.enabled plan then
    for m = 0 to f.f_n - 1 do
      if Plan.fire plan f.f_obs ~kind:Plan.Machine_pause ~cpu:m ~ts:h then
        nodes.(m).n_paused <- true
    done;
  (* brownout draws come after the pause draws so arming this kind
     cannot shift an existing plan's schedule *)
  if Plan.armed plan Plan.Machine_brownout then
    for m = 0 to f.f_n - 1 do
      let ex = nodes.(m).n_ex in
      if f.f_slow_until.(m) > 0 && f.f_slow_until.(m) <= h then begin
        f.f_slow_until.(m) <- 0;
        Exec.set_slowdown ex 1000;
        if Trace.enabled f.f_tr then
          Trace.instant f.f_tr ~name:"recover:brownout-clear" ~cat:"service"
            ~cpu:(-1) ~ts:h ()
      end;
      if Plan.fire plan f.f_obs ~kind:Plan.Machine_brownout ~cpu:m ~ts:h then begin
        let slow_x1000, dur = Plan.draw_brownout plan in
        w.w_brownouts <- w.w_brownouts + 1;
        f.f_slow_until.(m) <- h + dur;
        Exec.set_slowdown ex slow_x1000
      end
    done;
  if f.f_cfg.fc_bw_wjsq then observe_completions f nodes;
  route_all w f nodes h

(* Burn rate: (bad/total) / (1 - target).  1.0 = burning exactly the
   error budget; above = eating into it.  [run] refuses a target
   outside (0,1), so the divisor is never 0.  The series scales it to
   an integer (x1000) so the CSV stays int-exact. *)
let burn ~target ~good ~total =
  if total <= 0 then 0.0
  else float_of_int (total - good) /. float_of_int total /. (1.0 -. target)

let burn_x1000 ~target ~good ~total =
  int_of_float (burn ~target ~good ~total *. 1000.0)

(* Fleet telemetry: one series sampled at window barriers on the
   coordinator (machines quiescent, their writes published by the
   atomic handoff in parallel mode), so parallel and serial fleets
   sample byte-identical timelines.  Sampling is pure reads; with it
   off the loop is unchanged, so tables and goldens cannot drift
   (DESIGN §10). *)
let make_series cfg f nodes w =
  let ewin = Hist.window f.f_e2e in
  (* The burn rate per sampled window. *)
  let burn () =
    let g = f.f_slo_good and t = slo_total f in
    let dg = g - w.w_burn_good and dt = t - w.w_burn_total in
    w.w_burn_good <- g;
    w.w_burn_total <- t;
    burn_x1000 ~target:cfg.fc_slo_target ~good:dg ~total:dt
  in
  let count name id = Series.dcol ~name (fun () -> fcount f id) in
  let fixed =
    [
      count "arrivals" Counter.Service_arrivals;
      Series.dcol ~name:"completed" (fun () -> f.f_completed);
      count "failed" Counter.Service_failed;
      count "retries" Counter.Net_retries;
      count "nacks" Counter.Net_nacks;
      count "net_msgs" Counter.Net_msgs;
      count "drops" Counter.Net_drops;
      count "ejects" Counter.Machine_ejects;
      count "faults" Counter.Fault_injected;
      Series.dcol ~name:"slo_good" (fun () -> f.f_slo_good);
      Series.dcol ~name:"slo_total" (fun () -> slo_total f);
      Series.col ~name:"burn_x1000" burn;
      Series.col ~name:"p50_cyc" (fun () -> Hist.win_percentile ewin 50.0);
      Series.col ~name:"p99_cyc" (fun () -> Hist.win_percentile ewin 99.0);
    ]
  in
  let per_machine m nd =
    [
      Series.col ~name:(Printf.sprintf "m%d_depth" m) (fun () -> Exec.depth nd.n_ex);
      Series.dcol ~name:(Printf.sprintf "m%d_completed" m) (fun () ->
          ncount nd Counter.Service_completions);
    ]
  in
  Series.create ~name:"fleet"
    ~cols:(fixed @ List.concat (Array.to_list (Array.mapi per_machine nodes)))
    ~post:[ (fun () -> Hist.win_advance ewin) ]
    ()

let make_window cfg f nodes ~w_c ~cyc ~parallel =
  let n = Array.length nodes in
  (* The ambient period, as for [Plane]; read before any domain
     spawns, since a period below one cycle raises. *)
  let sample_c = Series.period_cycles ~cyc in
  let nh = if parallel then min n (Domain.recommended_domain_count ()) - 1 else 0 in
  let block_lo b = b * n / (nh + 1) in
  let coord = parking () in
  let helpers =
    Array.init nh (fun i ->
        {
          hp_lo = block_lo (i + 1);
          hp_hi = block_lo (i + 2);
          hp_cmd = Atomic.make 0;
          hp_park = parking ();
          hp_done = Atomic.make 0;
          hp_failed = None;
        })
  in
  let spawn hp = Domain.spawn (fun () -> helper_loop nodes f.f_tr coord hp 0) in
  let w =
    {
      w_len = w_c;
      w_block0 = block_lo 1;
      w_coord = coord;
      w_helpers = helpers;
      w_domains = Array.map spawn helpers;
      w_srcs =
        Array.append [| f.f_outbox |] (Array.map (fun nd -> nd.n_outbox) nodes);
      w_cur = Array.make (n + 1) 0;
      w_act = Array.make (n + 1) 0;
      w_brownouts = 0;
      w_sample_c = sample_c;
      w_series = None;
      w_burn_good = 0;
      w_burn_total = 0;
      w_elapsed = 0;
    }
  in
  if sample_c > 0 then w.w_series <- Some (make_series cfg f nodes w);
  w

(* One window: the front tier and every block advance to the horizon,
   then the barrier runs and a sample is taken when one is due. *)
let step w f nodes =
  let h = w.w_elapsed + w.w_len in
  let helpers = w.w_helpers in
  for i = 0 to Array.length helpers - 1 do
    publish helpers.(i).hp_park helpers.(i).hp_cmd h
  done;
  Sim.run_until f.f_sim h;
  run_block nodes f.f_tr 0 w.w_block0 h;
  for i = 0 to Array.length helpers - 1 do
    let hp = helpers.(i) in
    ignore (await w.w_coord hp.hp_done w.w_elapsed);
    match hp.hp_failed with Some e -> raise e | None -> ()
  done;
  (* a paused machine sits out exactly one window *)
  for m = 0 to Array.length nodes - 1 do
    nodes.(m).n_paused <- false
  done;
  barrier w f nodes h;
  (* sample once per period that ends in this window *)
  (match w.w_series with
  | Some s when h / w.w_sample_c > w.w_elapsed / w.w_sample_c -> Series.sample s ~ts:h
  | _ -> ());
  w.w_elapsed <- h

let stop w =
  Array.iter (fun hp -> publish hp.hp_park hp.hp_cmd (-1)) w.w_helpers;
  Array.iter Domain.join w.w_domains

(* ------------------------------------------------------------------ *)
(* Entry checks and readout *)

(* Every value [run] cannot run is refused here, naming its field.  The
   ranges are those of serve's matching flags, so nothing the CLI
   accepts is refused; [not (v >= 0.0)] also refuses a NaN. *)
let validate cfg =
  let reject what = invalid_arg ("Fleet.run: " ^ what) in
  if Array.length cfg.fc_machines < 1 then reject "fc_machines is empty";
  if not (Workload.is_open cfg.fc_workload) then
    reject "fc_workload must be open-loop";
  Array.iteri
    (fun m spec ->
      let reject what = reject (Printf.sprintf "fc_machines.(%d).%s" m what) in
      if spec.ms_workers < 1 then reject "ms_workers must be >= 1";
      if spec.ms_speed <= 0.0 then reject "ms_speed must be > 0")
    cfg.fc_machines;
  let non_negative name v = if not (v >= 0.0) then reject (name ^ " must be >= 0") in
  let fraction name v =
    if not (v >= 0.0 && v <= 1.0) then reject (name ^ " must be in [0,1]")
  in
  if cfg.fc_queue_cap < 1 then reject "fc_queue_cap must be >= 1";
  if cfg.fc_queue_cap > Squeue.max_cap then
    reject (Printf.sprintf "fc_queue_cap must be <= %d" Squeue.max_cap);
  non_negative "fc_work_us" cfg.fc_work_us;
  fraction "fc_hi_frac" cfg.fc_hi_frac;
  non_negative "fc_gossip_us" cfg.fc_gossip_us;
  non_negative "fc_slo_us" cfg.fc_slo_us;
  if not (cfg.fc_slo_target > 0.0 && cfg.fc_slo_target < 1.0) then
    reject "fc_slo_target must be in (0,1)";
  fraction "fc_hedge_frac" cfg.fc_hedge_frac;
  fraction "fc_hedge_budget" cfg.fc_hedge_budget;
  non_negative "fc_deadline_us" cfg.fc_deadline_us;
  non_negative "fc_itr_us" cfg.fc_itr_us

let read_out cfg f nodes w ~ghz =
  let nics = List.filter_map (fun nd -> nd.n_nic) (Array.to_list nodes) in
  List.iter (fun (nic, drv) -> Nic_driver.stop drv; Iw_hw.Nic.stop nic) nics;
  let sum g = Array.fold_left (fun acc nd -> acc + g nd) 0 nodes in
  let msum id = sum (fun nd -> ncount nd id) in
  let merged h = Hist.merge_all (Array.map (fun nd -> h nd.n_ex) nodes) in
  let elapsed_s = Units.us_of_cycles ~ghz w.w_elapsed /. 1e6 in
  let worker_cycles =
    w.w_elapsed * Array.fold_left (fun acc s -> acc + s.ms_workers) 0 cfg.fc_machines
  in
  {
    fr_machines = f.f_n;
    fr_policy = Dispatch.name cfg.fc_policy;
    fr_local_policy = Dispatch.name local_policy;
    fr_backend = Exec.backend_name cfg.fc_backend;
    fr_workload = Workload.describe cfg.fc_workload;
    fr_offered_rps = Workload.offered_rps cfg.fc_workload;
    fr_duration_us = Workload.duration_us cfg.fc_workload;
    fr_ghz = ghz;
    fr_window_cycles = w.w_len;
    fr_windows = w.w_elapsed / w.w_len;
    fr_arrivals = fcount f Counter.Service_arrivals;
    fr_completed = f.f_completed;
    fr_failed = fcount f Counter.Service_failed;
    fr_retries = fcount f Counter.Net_retries;
    fr_nacks = fcount f Counter.Net_nacks;
    fr_net_msgs = fcount f Counter.Net_msgs;
    fr_net_drops = fcount f Counter.Net_drops;
    fr_gossip_msgs = fcount f Counter.Gossip_msgs;
    fr_ejects = fcount f Counter.Machine_ejects;
    fr_elapsed_cycles = w.w_elapsed;
    fr_throughput_rps =
      (if elapsed_s > 0.0 then float_of_int f.f_completed /. elapsed_s else 0.0);
    fr_utilization =
      (if worker_cycles > 0 then
         float_of_int (sum (fun nd -> Exec.busy_cycles nd.n_ex))
         /. float_of_int worker_cycles
       else 0.0);
    fr_total = f.f_e2e;
    fr_queue = merged Exec.h_queue;
    fr_service = merged Exec.h_service;
    fr_m_names =
      Array.mapi (fun m s -> Printf.sprintf "m%d:%s" m s.ms_name) cfg.fc_machines;
    fr_m_completed = Array.map (fun nd -> ncount nd Counter.Service_completions) nodes;
    fr_m_busy = Array.map (fun nd -> Exec.busy_cycles nd.n_ex) nodes;
    fr_m_counters = Array.map (fun nd -> Counter.to_list (Sched.counters nd.n_k)) nodes;
    fr_slo_good = f.f_slo_good;
    fr_slo_total = slo_total f;
    fr_hedges = fcount f Counter.Hedge_sent;
    fr_hedge_wins = fcount f Counter.Hedge_won;
    fr_hedge_cancels = fcount f Counter.Hedge_cancel;
    fr_admission_shed = fcount f Counter.Admission_shed;
    fr_corrupt_retries = fcount f Counter.Corrupt_retry;
    fr_steals = msum Counter.Peer_steal;
    fr_brownouts = w.w_brownouts;
    fr_nic_rx = msum Counter.Nic_rx_pkts;
    fr_nic_drops = msum Counter.Nic_rx_drops;
    fr_nic_irqs = msum Counter.Nic_irqs;
    fr_nic_polls = msum Counter.Nic_polls;
    fr_nic_empty_polls = msum Counter.Nic_poll_empty;
    fr_nic_wasted_cycles = Nic_driver.poll_cost * msum Counter.Nic_poll_empty;
    fr_nic_switches =
      List.fold_left (fun acc (_, drv) -> acc + Nic_driver.switches drv) 0 nics;
    fr_nic_recovers = msum Counter.Nic_irq_recover;
    fr_nic_tx = msum Counter.Nic_tx_pkts;
    fr_series = Option.map (fun s -> Series.publish s; s) w.w_series;
  }

let run ?parallel cfg =
  validate cfg;
  (* One fleet clock: the first machine's.  Heterogeneity comes from
     personalities, cost tables, worker counts, and body speed. *)
  let ghz = cfg.fc_machines.(0).ms_plat.Iw_hw.Platform.ghz in
  (* A duration knob of 0 (or less) disables what it times. *)
  let cyc us = if us > 0.0 then Units.cycles_of_us ~ghz us else 0 in
  let w_c = Net.lat_cycles cfg.fc_net ~ghz in
  let obs = Obs.inherit_trace () in
  let tr = obs.Obs.trace in
  if Trace.flows_enabled tr then Trace.new_flow_scope tr;
  let plan = Plan.ambient () in
  let n = Array.length cfg.fc_machines in
  let parallel =
    Option.value parallel ~default:(Domain.is_main_domain ())
    && n > 1
    && (not (Trace.enabled tr))
    && not (plan_needs_serial plan)
  in
  let nodes = Array.init n (make_node cfg ~ghz ~cyc ~tr) in
  let f = make_front cfg ~ghz ~cyc ~w_c ~obs ~plan in
  let w = make_window cfg f nodes ~w_c ~cyc ~parallel in
  let loop () = while not (f.f_gen_done && outstanding f = 0) do step w f nodes done in
  Fun.protect loop ~finally:(fun () -> stop w);
  read_out cfg f nodes w ~ghz
