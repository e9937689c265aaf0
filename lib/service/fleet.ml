(* Fleet serving: N machines behind a balancing front tier.  See
   fleet.mli for the model and the determinism argument. *)

open Iw_engine
open Iw_kernel
module Plan = Iw_faults.Plan
module Counter = Iw_obs.Counter

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

(* One machine of the fleet: a full Exec stack on its own kernel, its
   NIC and driver when the fleet has them, plus the front tier's view
   of it (links, health). *)
type machine = {
  m_spec : mspec;
  m_k : Sched.t;
  m_ex : Exec.t;
  m_sim : Iw_engine.Sim.t;
  m_nic : (Iw_hw.Nic.t * Nic_driver.t) option;
  m_on_req : int -> int -> unit;  (* a request message arrives *)
  m_outbox : Net.msgbuf;
  m_up : Net.link;  (* front -> machine *)
  m_down : Net.link;  (* machine -> front *)
  m_cpu_base : int;  (* global CPU offset for trace identity *)
  mutable m_paused : bool;  (* skip the next window (fault) *)
  mutable m_streak : int;  (* consecutive front-side timeouts *)
  mutable m_ejected_until : int;
  mutable m_slow_until : int;  (* brownout expiry cycle; 0 = full speed *)
}

(* A machine-side count (admissions, completions, steals), read from
   the one place it is kept: the machine kernel's typed counters. *)
let mcount mc id = Counter.get (Sched.counters mc.m_k) id

(* The front tier's request table.  Monotone — slots are never
   recycled, so a late duplicate response can never be misread as a
   different request's.  Memory is linear in arrivals, which a
   bounded-duration run keeps small. *)
type ftab = {
  mutable ft_n : int;
  mutable ft_arrival : int array;
  mutable ft_state : int array;  (* 0 in flight, 1 done, 2 failed *)
  mutable ft_retries : int array;
  mutable ft_machine : int array;
  mutable ft_hmachine : int array;  (* hedge copy's machine; -1 = none *)
  mutable ft_hi : int array;
}

let ftab_create () =
  {
    ft_n = 0;
    ft_arrival = Array.make 1024 0;
    ft_state = Array.make 1024 0;
    ft_retries = Array.make 1024 0;
    ft_machine = Array.make 1024 0;
    ft_hmachine = Array.make 1024 0;
    ft_hi = Array.make 1024 0;
  }

let ftab_alloc ft ~arrival ~hi =
  if ft.ft_n = Array.length ft.ft_arrival then begin
    let g a = Array.append a (Array.make (Array.length a) 0) in
    ft.ft_arrival <- g ft.ft_arrival;
    ft.ft_state <- g ft.ft_state;
    ft.ft_retries <- g ft.ft_retries;
    ft.ft_machine <- g ft.ft_machine;
    ft.ft_hmachine <- g ft.ft_hmachine;
    ft.ft_hi <- g ft.ft_hi
  end;
  let id = ft.ft_n in
  ft.ft_arrival.(id) <- arrival;
  ft.ft_state.(id) <- 0;
  ft.ft_retries.(id) <- 0;
  ft.ft_machine.(id) <- -1;
  ft.ft_hmachine.(id) <- -1;
  ft.ft_hi.(id) <- (if hi then 1 else 0);
  ft.ft_n <- id + 1;
  id

(* A fault plan arming machine-internal kinds (TLB, IPI, virtine,
   worker hangs...) draws from the plan's RNG inside machine kernels,
   which only stays deterministic when machines share the
   coordinator's domain.  Kinds drawn at the front tier or at
   barriers (links, pauses, brownouts, response corruption) are
   coordinator-only and stay parallel-safe. *)
let plan_needs_serial plan =
  Plan.enabled plan
  && List.exists
       (fun k ->
         Plan.armed plan k
         &&
         match k with
         | Plan.Link_drop | Plan.Link_delay | Plan.Machine_pause
         | Plan.Machine_brownout | Plan.Req_corrupt ->
             false
         | _ -> true)
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

let no_handler (_ : int) (_ : int) = ()

let rec nil_payload =
  {
    p_handler = no_handler;
    p_a = 0;
    p_b = 0;
    p_next = nil_payload;
    p_fire = ignore;
  }

type pool = { pl_sim : Iw_engine.Sim.t; mutable pl_free : payload }

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
  Iw_engine.Sim.schedule_unit pl.pl_sim ~at p.p_fire

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

let run ?parallel cfg =
  let n = Array.length cfg.fc_machines in
  if n < 1 then invalid_arg "Fleet.run: fc_machines is empty";
  if not (Workload.is_open cfg.fc_workload) then
    invalid_arg "Fleet.run: fc_workload must be open-loop";

  (* One fleet clock: the first machine's.  Heterogeneity comes from
     personalities, cost tables, worker counts, and body speed. *)
  let ghz = cfg.fc_machines.(0).ms_plat.Iw_hw.Platform.ghz in
  let plat0 =
    Iw_hw.Platform.with_cores cfg.fc_machines.(0).ms_plat 1
  in
  let cyc us = Iw_hw.Platform.cycles_of_us plat0 us in
  let w_c = Net.lat_cycles cfg.fc_net ~ghz in
  let rto_c = max (w_c + 1) (cyc rto_us) in
  let eject_c = cyc eject_us in
  let gossip_c = if cfg.fc_gossip_us > 0.0 then cyc cfg.fc_gossip_us else 0 in

  let front_obs = Iw_obs.Obs.inherit_trace () in
  let fctr = front_obs.Iw_obs.Obs.counters in
  let fcount id = Counter.get fctr id in
  let tr = front_obs.Iw_obs.Obs.trace in
  let tracing = Iw_obs.Trace.enabled tr in
  if Iw_obs.Trace.flows_enabled tr then Iw_obs.Trace.new_flow_scope tr;
  let plan = Plan.ambient () in
  let parallel =
    (match parallel with
    | Some p -> p
    | None -> Domain.is_main_domain () && not tracing)
    && n > 1 && not tracing
    && not (plan_needs_serial plan)
  in

  (* -------------------------------------------------------------- *)
  (* Machines *)
  let cpu_base = Array.make n 0 in
  for m = 1 to n - 1 do
    cpu_base.(m) <- cpu_base.(m - 1) + cfg.fc_machines.(m - 1).ms_workers
  done;
  let itr_c = if cfg.fc_itr_us > 0.0 then cyc cfg.fc_itr_us else 0 in
  let machines =
    Array.init n (fun m ->
        let spec = cfg.fc_machines.(m) in
        let reject what =
          invalid_arg
            (Printf.sprintf "Fleet.run: fc_machines.(%d).%s" m what)
        in
        if spec.ms_workers < 1 then reject "ms_workers must be >= 1";
        if spec.ms_speed <= 0.0 then reject "ms_speed must be > 0";
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
          Net.mb_push outbox ~kind:Net.k_resp ~dst:(-1) ~a ~b
            ~t:(Iw_engine.Sim.now sim)
        in
        (* Opt-in NIC path: a device on the machine's own simulator.
           Creating it schedules nothing, so it can come before Exec. *)
        let nic =
          if cfg.fc_nic then
            Some (Iw_hw.Nic.create ~obs:(Sched.obs k) ~sim itr_c)
          else None
        in
        let respond =
          match nic with
          | None -> fun ~reply -> send_resp ~a:reply ~b:m
          | Some nic ->
              (* Through the TX ring: the frame reaches the outbox when
                 its descriptor finishes serializing (on_tx below).  A
                 full ring loses the response; the front tier's RTO
                 retry is the recovery, one layer up. *)
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
              (* one fleet-wide demand seed: a request costs the same
                 cycles wherever a retry or hedge lands it *)
            ~demand_seed:(cfg.fc_seed + 23)
            ~demand_scale:(1.0 /. spec.ms_speed)
            ~workers:spec.ms_workers ~order:cfg.fc_order
            ~queue_cap:cfg.fc_queue_cap ~backend:cfg.fc_backend
            ~work_us:(cfg.fc_work_us /. spec.ms_speed)
            ~policy:local_policy ~dispatch_rng
            ~wasp_seed:(cfg.fc_seed + 17 + (1000 * (m + 1)))
            ~mode:(Exec.Fleet { fm_tx_c = tx_c; fm_respond = respond })
            ()
        in
        if gossip_c > 0 then begin
          let rec tick () =
            Net.mb_push outbox ~kind:Net.k_gossip ~dst:(-1) ~a:(Exec.depth ex)
              ~b:m ~t:(Iw_engine.Sim.now sim);
            Iw_engine.Sim.schedule_after_unit sim gossip_c tick
          in
          Iw_engine.Sim.schedule_unit sim ~at:gossip_c tick
        end;
        (* A request reaching the machine, by wire or through the NIC
           driver: (a = request id, b = packed attempt/hi). *)
        let rx id b =
          let now = Iw_engine.Sim.now sim in
          (* Runs inside the machine's window (cpu_base set for it), so
             this step lands on the machine's first worker process — the
             hop that carries the flow across the network boundary. *)
          if Iw_obs.Trace.flows_enabled tr then
            Iw_obs.Trace.flow tr ~name:"req" ~phase:Iw_obs.Trace.flow_step ~id
              ~cpu:0 ~ts:now ();
          let qi =
            Exec.try_enqueue ex ~intended:(-1) ~hi:(b land 1 = 1) ~arrival:now
              ~reply:id
          in
          if qi >= 0 then Sched.sem_signal k (Exec.doorbell ex qi)
          else begin
            Counter.incr (Sched.counters k) Counter.Service_shed;
            Net.mb_push outbox ~kind:Net.k_nack ~dst:(-1) ~a:id ~b:(b asr 1)
              ~t:now
          end
        in
        (* The driver comes after Exec and the gossip tick, keeping each
           machine's scheduling order; its handler is exactly [rx]. *)
        let nic_drv, on_req =
          match nic with
          | None -> (None, rx)
          | Some nic ->
              let drv =
                Nic_driver.create ~k ~nic cfg.fc_nic_mode
                  ~handler:(fun ~a ~b -> rx a b)
              in
              (Some (nic, drv), fun a b -> ignore (Iw_hw.Nic.rx_push nic ~a ~b))
        in
        {
          m_spec = spec;
          m_k = k;
          m_ex = ex;
          m_sim = sim;
          m_nic = nic_drv;
          m_on_req = on_req;
          m_outbox = outbox;
          m_up = Net.link cfg.fc_net ~ghz;
          m_down = Net.link cfg.fc_net ~ghz;
          m_cpu_base = cpu_base.(m);
          m_paused = false;
          m_streak = 0;
          m_ejected_until = 0;
          m_slow_until = 0;
        })
  in

  (* -------------------------------------------------------------- *)
  (* Front tier *)
  let fsim = Iw_engine.Sim.create ~seed:(cfg.fc_seed lxor 0xF401) () in
  let base = Rng.create ~seed:(cfg.fc_seed lxor rng_salt) in
  let arrival_rng = Rng.split base in
  let balancer_rng = Rng.split base in
  let prio_rng = Rng.split base in
  let bdisp = Dispatch.create cfg.fc_policy ~rng:balancer_rng in
  let fpool = pool fsim in
  let front_outbox = Net.mb_create () in
  let view = Array.make n 0 in
  let weights =
    Array.map
      (fun s -> max 1 (int_of_float (float_of_int s.ms_workers *. s.ms_speed *. 16.0)))
      cfg.fc_machines
  in
  let ft = ftab_create () in

  (* Front-tier counts live only in [fctr], machine counts only in each
     machine's kernel counters; [completed] has no typed counter. *)
  let completed = ref 0 in
  let outstanding = ref 0 in
  let gen_done = ref false in
  let h_e2e = Hist.create () in

  (* SLO accounting (off unless fc_slo_us > 0, so default runs keep
     their goldens): a completion is good iff its end-to-end latency
     met the bound; a failed request (retries exhausted) counts
     against the SLO with no good side. *)
  let slo_c = if cfg.fc_slo_us > 0.0 then cyc cfg.fc_slo_us else 0 in
  let slo_good = ref 0 in
  let slo_total = ref 0 in

  (* ---- graceful degradation state (all inert at the defaults) ---- *)
  let deadline_c = if cfg.fc_deadline_us > 0.0 then cyc cfg.fc_deadline_us else 0 in
  let hedge_c =
    if cfg.fc_hedge_frac > 0.0 && deadline_c > 0 then
      max 1 (int_of_float (float_of_int deadline_c *. cfg.fc_hedge_frac))
    else 0
  in
  let admit_on = cfg.fc_admit && deadline_c > 0 in
  let corrupt_armed = Plan.enabled plan && Plan.armed plan Plan.Req_corrupt in
  let brownout_armed = Plan.enabled plan && Plan.armed plan Plan.Machine_brownout in
  (* hedge copies carry a sentinel attempt so machine nacks for them
     never feed the retry state machine *)
  let hedge_att = 0x3FFFFF in
  let brownouts = ref 0 in
  (* EWMA of end-to-end sojourn, the admission controller's service
     time estimate; seeded with the nominal body cost *)
  let ewma_svc_c = ref (max 1 (cyc cfg.fc_work_us)) in
  (* brownout-aware wjsq: a leaky integrator of each machine's
     completions per window — a machine running at 1/3 speed earns
     1/3 the weight, whatever its gossiped depth claims *)
  let obs_w = Array.make n 0 in
  let prev_comp = Array.make n 0 in
  let mweight m = if cfg.fc_bw_wjsq then max 1 obs_w.(m) else weights.(m) in

  (* The balancer's probes over the candidate set, built once per run:
     a closure or a [Some] per pick would allocate. *)
  let cand = Array.make n 0 in
  let cand_len j = view.(cand.(j)) in
  let cand_weight = Some (fun j -> mweight cand.(j)) in
  let pick_machine now =
    let nc = ref 0 in
    for m = 0 to n - 1 do
      if machines.(m).m_ejected_until <= now then begin
        cand.(!nc) <- m;
        incr nc
      end
    done;
    if !nc = 0 then begin
      (* everyone ejected: no choice but to try them all again *)
      for m = 0 to n - 1 do
        cand.(m) <- m
      done;
      nc := n
    end;
    cand.(Dispatch.pick bdisp ?weight:cand_weight ~n:!nc ~len:cand_len)
  in

  let rec send_attempt id attempt =
    let now = Iw_engine.Sim.now fsim in
    let m = pick_machine now in
    ft.ft_machine.(id) <- m;
    (* The request id keys the Chrome flow: "s" here at the origin,
       "t" at each retry hop, so the front tier anchors the causal
       chain the machine-side steps extend. *)
    if Iw_obs.Trace.flows_enabled tr then
      Iw_obs.Trace.flow tr ~name:"req"
        ~phase:
          (if attempt = 0 then Iw_obs.Trace.flow_start
           else Iw_obs.Trace.flow_step)
        ~id ~cpu:(-1) ~ts:now ();
    Net.mb_push front_outbox ~kind:Net.k_req ~dst:m ~a:id
      ~b:((attempt lsl 1) lor ft.ft_hi.(id))
      ~t:now;
    post fpool ~at:(now + rto_c) on_timeout id attempt;
    if hedge_c > 0 && attempt = 0 then post fpool ~at:(now + hedge_c) maybe_hedge id 0
  and maybe_hedge id (_ : int) =
    (* Hedge once per request, against a global budget (a fraction of
       arrivals so far), onto a live machine other than the primary.
       The hedge copy gets no RTO of its own: the primary's timeout
       still guards the request.  (The ignored word gives the timer
       the (a, b) shape of every pooled handler.) *)
    if
      ft.ft_state.(id) = 0
      && ft.ft_hmachine.(id) < 0
      && fcount Counter.Hedge_sent
         < int_of_float
             (cfg.fc_hedge_budget *. float_of_int (fcount Counter.Service_arrivals))
    then begin
      let now = Iw_engine.Sim.now fsim in
      let primary = ft.ft_machine.(id) in
      let nc = ref 0 in
      for m = 0 to n - 1 do
        if m <> primary && machines.(m).m_ejected_until <= now then begin
          cand.(!nc) <- m;
          incr nc
        end
      done;
      if !nc > 0 then begin
        let m = cand.(Dispatch.pick bdisp ?weight:cand_weight ~n:!nc ~len:cand_len) in
        ft.ft_hmachine.(id) <- m;
        Counter.incr fctr Counter.Hedge_sent;
        if tracing then
          Iw_obs.Trace.instant tr ~name:"recover:hedge" ~cat:"service"
            ~cpu:(-1) ~ts:now ();
        Net.mb_push front_outbox ~kind:Net.k_req ~dst:m ~a:id
          ~b:((hedge_att lsl 1) lor ft.ft_hi.(id))
          ~t:now
      end
    end
  and retry id =
    if ft.ft_retries.(id) >= max_retries then begin
      ft.ft_state.(id) <- 2;
      if slo_c > 0 then incr slo_total;
      Counter.incr fctr Counter.Service_failed;
      decr outstanding
    end
    else begin
      ft.ft_retries.(id) <- ft.ft_retries.(id) + 1;
      Counter.incr fctr Counter.Net_retries;
      send_attempt id ft.ft_retries.(id)
    end
  and on_timeout id attempt =
    (* Only the newest attempt can time out; a response or nack in
       the meantime either finished the request or already retried. *)
    if ft.ft_state.(id) = 0 && ft.ft_retries.(id) = attempt then begin
      let mc = machines.(ft.ft_machine.(id)) in
      mc.m_streak <- mc.m_streak + 1;
      if mc.m_streak >= eject_streak then begin
        mc.m_ejected_until <- Iw_engine.Sim.now fsim + eject_c;
        mc.m_streak <- 0;
        Counter.incr fctr Counter.Machine_ejects
      end;
      retry id
    end
  in
  let complete ~corrupt id m =
    ft.ft_state.(id) <- 1;
    machines.(m).m_streak <- 0;
    incr completed;
    let now = Iw_engine.Sim.now fsim in
    let lat = now - ft.ft_arrival.(id) in
    Hist.record h_e2e lat;
    if deadline_c > 0 then
      ewma_svc_c := !ewma_svc_c + ((lat - !ewma_svc_c) asr 4);
    if slo_c > 0 then begin
      incr slo_total;
      (* an accepted-but-corrupt response is never SLO-good *)
      if (not corrupt) && lat <= slo_c then incr slo_good
    end;
    if ft.ft_hmachine.(id) >= 0 && m = ft.ft_hmachine.(id) then
      Counter.incr fctr Counter.Hedge_won;
    if Iw_obs.Trace.flows_enabled tr then
      Iw_obs.Trace.flow tr ~name:"req" ~phase:Iw_obs.Trace.flow_finish ~id
        ~cpu:(-1) ~ts:now ();
    decr outstanding
  in
  let on_resp id m =
    if ft.ft_state.(id) = 0 then begin
      if
        corrupt_armed
        && Plan.fire plan front_obs ~kind:Plan.Req_corrupt ~cpu:m
             ~ts:(Iw_engine.Sim.now fsim)
      then begin
        if cfg.fc_corrupt_retry then begin
          (* garbage answer: burn the work and re-execute, bounded by
             the ordinary retry budget *)
          Counter.incr fctr Counter.Corrupt_retry;
          if tracing then
            Iw_obs.Trace.instant tr ~name:"recover:reexec" ~cat:"service"
              ~cpu:(-1) ~ts:(Iw_engine.Sim.now fsim) ();
          retry id
        end
        else complete ~corrupt:true id m
      end
      else complete ~corrupt:false id m
    end
    else if ft.ft_state.(id) = 1 && ft.ft_hmachine.(id) >= 0 then
      (* the losing copy of a hedged request coming home late *)
      Counter.incr fctr Counter.Hedge_cancel
  in
  let on_nack id attempt m =
    Counter.incr fctr Counter.Net_nacks;
    machines.(m).m_streak <- 0;
    (* a nack proves the machine is alive, just full — retry now
       rather than waiting out the RTO.  A nacked hedge copy just
       dies: the primary attempt still owns the request. *)
    if attempt <> hedge_att && ft.ft_state.(id) = 0 && ft.ft_retries.(id) = attempt
    then retry id
  in

  let g = Workload.gen cfg.fc_workload ~rng:arrival_rng in
  Workload.set_ghz g ghz;
  let admitted now =
    (not admit_on)
    ||
    (* predicted wait on the least-loaded live machine: gossiped depth
       x EWMA sojourn / workers.  If even the best machine would blow
       the deadline, shed at the door instead of queueing a request
       that is already dead. *)
    let best = ref max_int in
    for m = 0 to n - 1 do
      if machines.(m).m_ejected_until <= now then begin
        let p = view.(m) * !ewma_svc_c / cfg.fc_machines.(m).ms_workers in
        if p < !best then best := p
      end
    done;
    !best = max_int || !best <= deadline_c
  in
  let rec arrive () =
    let now = Iw_engine.Sim.now fsim in
    Counter.incr fctr Counter.Service_arrivals;
    if admitted now then begin
      let hi = Rng.chance prio_rng cfg.fc_hi_frac in
      let id = ftab_alloc ft ~arrival:now ~hi in
      incr outstanding;
      send_attempt id 0
    end
    else begin
      Counter.incr fctr Counter.Admission_shed;
      if tracing then
        Iw_obs.Trace.instant tr ~name:"recover:shed" ~cat:"service" ~cpu:(-1)
          ~ts:now ();
      (* a shed request is still an SLO miss: degradation must not
         launder the error budget *)
      if slo_c > 0 then incr slo_total
    end;
    schedule_next ()
  and schedule_next () =
    let at = Workload.next_cycles g in
    if at < 0 then gen_done := true
    else
      Iw_engine.Sim.schedule_unit fsim
        ~at:(max at (Iw_engine.Sim.now fsim))
        arrive
  in
  schedule_next ();

  (* -------------------------------------------------------------- *)
  (* Barrier: route every outbox message in canonical order *)
  let bytes_of kind =
    if kind = Net.k_req then req_bytes
    else if kind = Net.k_gossip then gossip_bytes
    else resp_bytes
  in
  (* One handler per message kind, built once: a delivered message is
     a pooled (handler, a, b) record, never a fresh closure. *)
  let mpools = Array.map (fun mc -> pool mc.m_sim) machines in
  let on_gossip depth m =
    view.(m) <- depth;
    Counter.incr fctr Counter.Gossip_msgs
  in
  let on_nack_from = Array.init n (fun m -> fun id attempt -> on_nack id attempt m) in
  let route_one src buf i h =
    let kind = buf.Net.mb_kind.(i) in
    let dst = buf.Net.mb_dst.(i) in
    let a = buf.Net.mb_a.(i) in
    let b = buf.Net.mb_b.(i) in
    let t = buf.Net.mb_t.(i) in
    if Plan.enabled plan && Plan.fire plan front_obs ~kind:Plan.Link_drop ~cpu:src ~ts:t
    then Counter.incr fctr Counter.Net_drops
    else begin
      let extra =
        if
          Plan.enabled plan
          && Plan.fire plan front_obs ~kind:Plan.Link_delay ~cpu:src ~ts:t
        then Plan.net_delay_cycles
        else 0
      in
      let link =
        if kind = Net.k_req then machines.(dst).m_up else machines.(src - 1).m_down
      in
      let d = Net.route link ~send:t ~bytes:(bytes_of kind) ~extra in
      (* conservative clamp: never deliver into the closing window *)
      let at = if d < h then h else d in
      Counter.incr fctr Counter.Net_msgs;
      if kind = Net.k_req then post mpools.(dst) ~at machines.(dst).m_on_req a b
      else if kind = Net.k_resp then post fpool ~at on_resp a b
      else if kind = Net.k_gossip then post fpool ~at on_gossip a b
      else post fpool ~at on_nack_from.(src - 1) a b
    end
  in
  (* Source 0 is the front tier, source m + 1 machine m. *)
  let bufs = Array.make (n + 1) front_outbox in
  for m = 0 to n - 1 do
    bufs.(m + 1) <- machines.(m).m_outbox
  done;
  (* Canonical order: send time, then source, then per-source
     submission order — independent of how machines were spread over
     domains.  Every outbox is already sorted by send time (see
     [Net.mb_push]), so that order is a k-way merge of the n + 1 runs:
     repeatedly route the earliest head, the lowest source on a tie.
     [act] lists the sources with messages left, in source order. *)
  let cur = Array.make (n + 1) 0 in
  let act = Array.make (n + 1) 0 in
  let route_all h =
    let na = ref 0 in
    for s = 0 to n do
      cur.(s) <- 0;
      if bufs.(s).Net.mb_n > 0 then begin
        act.(!na) <- s;
        incr na
      end
    done;
    while !na > 0 do
      let best = ref 0 in
      let best_t = ref bufs.(act.(0)).Net.mb_t.(cur.(act.(0))) in
      for j = 1 to !na - 1 do
        let s = act.(j) in
        let t = bufs.(s).Net.mb_t.(cur.(s)) in
        if t < !best_t then begin
          best := j;
          best_t := t
        end
      done;
      let s = act.(!best) in
      let i = cur.(s) in
      route_one s bufs.(s) i h;
      cur.(s) <- i + 1;
      if i + 1 = bufs.(s).Net.mb_n then begin
        Array.blit act (!best + 1) act !best (!na - !best - 1);
        decr na
      end
    done;
    for s = 0 to n do
      Net.mb_clear bufs.(s)
    done
  in
  let barrier h =
    (* machine pauses draw first, in machine order *)
    if Plan.enabled plan then
      for m = 0 to n - 1 do
        if Plan.fire plan front_obs ~kind:Plan.Machine_pause ~cpu:m ~ts:h then
          machines.(m).m_paused <- true
      done;
    (* brownout draws come after the pause draws so arming this kind
       cannot shift an existing plan's schedule *)
    if brownout_armed then
      for m = 0 to n - 1 do
        let mc = machines.(m) in
        if mc.m_slow_until > 0 && mc.m_slow_until <= h then begin
          mc.m_slow_until <- 0;
          Exec.set_slowdown mc.m_ex 1000;
          if tracing then
            Iw_obs.Trace.instant tr ~name:"recover:brownout-clear"
              ~cat:"service" ~cpu:(-1) ~ts:h ()
        end;
        if Plan.fire plan front_obs ~kind:Plan.Machine_brownout ~cpu:m ~ts:h
        then begin
          let slow_x1000, dur = Plan.draw_brownout plan in
          incr brownouts;
          mc.m_slow_until <- h + dur;
          Exec.set_slowdown mc.m_ex slow_x1000
        end
      done;
    (* observed completion rate per machine: what the brownout-aware
       balancer weighs instead of trusting nominal speed *)
    if cfg.fc_bw_wjsq then
      for m = 0 to n - 1 do
        let c = mcount machines.(m) Counter.Service_completions in
        let d = c - prev_comp.(m) in
        prev_comp.(m) <- c;
        obs_w.(m) <- obs_w.(m) - (obs_w.(m) asr 3) + d
      done;
    route_all h
  in

  (* -------------------------------------------------------------- *)
  (* Fleet telemetry: one series sampled at conservative-window
     barriers on the coordinator (machines quiescent, their writes
     published by the atomic handoff in parallel mode), so parallel
     and serial fleets sample byte-identical timelines.  Sampling is
     pure reads; with it off the loop below is unchanged, so tables
     and goldens cannot drift (DESIGN §10).  The period is the ambient
     one, as for [Plane]. *)
  let sample_c = Iw_obs.Series.period_cycles ~cyc in
  let series =
    if sample_c = 0 then None
    else begin
      let ewin = Hist.window h_e2e in
      (* Burn rate per window: (bad/total) / (1 - target), scaled to
         an integer (x1000) so the CSV stays int-exact.  1000 = burning
         exactly the error budget; above = eating into it. *)
      let pg = ref 0 and pt = ref 0 in
      let burn () =
        let g = !slo_good and t = !slo_total in
        let dg = g - !pg and dt = t - !pt in
        pg := g;
        pt := t;
        if dt <= 0 || cfg.fc_slo_target >= 1.0 then 0
        else
          int_of_float
            (float_of_int (dt - dg) /. float_of_int dt
            /. (1.0 -. cfg.fc_slo_target) *. 1000.0)
      in
      let count name id = Iw_obs.Series.dcol ~name (fun () -> fcount id) in
      let fixed =
        [
          count "arrivals" Counter.Service_arrivals;
          Iw_obs.Series.dref ~name:"completed" completed;
          count "failed" Counter.Service_failed;
          count "retries" Counter.Net_retries;
          count "nacks" Counter.Net_nacks;
          count "net_msgs" Counter.Net_msgs;
          count "drops" Counter.Net_drops;
          count "ejects" Counter.Machine_ejects;
          count "faults" Counter.Fault_injected;
          Iw_obs.Series.dref ~name:"slo_good" slo_good;
          Iw_obs.Series.dref ~name:"slo_total" slo_total;
          Iw_obs.Series.col ~name:"burn_x1000" burn;
          Iw_obs.Series.col ~name:"p50_cyc" (fun () ->
              Hist.win_percentile ewin 50.0);
          Iw_obs.Series.col ~name:"p99_cyc" (fun () ->
              Hist.win_percentile ewin 99.0);
        ]
      in
      let per_machine =
        List.concat
          (Array.to_list
             (Array.mapi
                (fun m mc ->
                  [
                    Iw_obs.Series.col ~name:(Printf.sprintf "m%d_depth" m)
                      (fun () -> Exec.depth mc.m_ex);
                    Iw_obs.Series.dcol ~name:(Printf.sprintf "m%d_completed" m)
                      (fun () -> mcount mc Counter.Service_completions);
                  ])
                machines))
      in
      Some
        (Iw_obs.Series.create ~name:"fleet" ~cols:(fixed @ per_machine)
           ~post:[ (fun () -> Hist.win_advance ewin) ] ())
    end
  in
  let next_sample = ref sample_c in
  let sample_window h =
    match series with
    | None -> ()
    | Some s ->
        if h >= !next_sample then begin
          Iw_obs.Series.sample s ~ts:h;
          next_sample := !next_sample + sample_c;
          while !next_sample <= h do
            next_sample := !next_sample + sample_c
          done
        end
  in

  (* -------------------------------------------------------------- *)
  (* The conservative window loop.  The machines are cut into
     contiguous blocks, one per domain: block 0 runs on the
     coordinator, after the front tier's window, and every other block
     on a helper domain of its own.  The front tier and the machines
     share nothing inside a window (messages move only at the
     barrier), so the coordinator overlaps them.  A serial fleet is
     the zero-helper case.  Loops, not [Array.iter]: a closure over
     [h] would allocate every window. *)
  let run_block lo hi h =
    for m = lo to hi - 1 do
      let mc = machines.(m) in
      if not mc.m_paused then begin
        if tracing then Iw_obs.Trace.set_cpu_base tr mc.m_cpu_base;
        Sched.run_until mc.m_k h;
        if tracing then Iw_obs.Trace.set_cpu_base tr 0
      end
    done
  in
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
  let rec helper_loop hp last =
    let h = await hp.hp_park hp.hp_cmd last in
    if h > 0 then begin
      (try run_block hp.hp_lo hp.hp_hi h with e -> hp.hp_failed <- Some e);
      publish coord hp.hp_done h;
      helper_loop hp h
    end
  in
  let domains =
    Array.map (fun hp -> Domain.spawn (fun () -> helper_loop hp 0)) helpers
  in
  let windows = ref 0 in
  let elapsed = ref 0 in
  let loop () =
    while not (!gen_done && !outstanding = 0) do
      let h = !elapsed + w_c in
      for i = 0 to nh - 1 do
        publish helpers.(i).hp_park helpers.(i).hp_cmd h
      done;
      Iw_engine.Sim.run_until fsim h;
      run_block 0 (block_lo 1) h;
      for i = 0 to nh - 1 do
        let hp = helpers.(i) in
        ignore (await coord hp.hp_done !elapsed);
        match hp.hp_failed with Some e -> raise e | None -> ()
      done;
      (* a paused machine sits out exactly one window *)
      for m = 0 to n - 1 do
        machines.(m).m_paused <- false
      done;
      barrier h;
      sample_window h;
      incr windows;
      elapsed := h
    done
  in
  Fun.protect loop ~finally:(fun () ->
      Array.iter (fun hp -> publish hp.hp_park hp.hp_cmd (-1)) helpers;
      Array.iter Domain.join domains);

  (* -------------------------------------------------------------- *)
  (* Readout *)
  Array.iter
    (fun mc ->
      Option.iter
        (fun (nic, drv) ->
          Nic_driver.stop drv;
          Iw_hw.Nic.stop nic)
        mc.m_nic)
    machines;
  let msum id = Array.fold_left (fun acc mc -> acc + mcount mc id) 0 machines in
  let merged shards =
    Hist.merge_all
      (Array.concat (Array.to_list (Array.map (fun mc -> shards mc.m_ex) machines)))
  in
  let duration_us = Workload.duration_us cfg.fc_workload in
  let elapsed_s = Iw_hw.Platform.us_of_cycles plat0 !elapsed /. 1e6 in
  let total_worker_cycles =
    Array.fold_left
      (fun acc mc -> acc + (mc.m_spec.ms_workers * !elapsed))
      0 machines
  in
  let busy =
    Array.fold_left (fun acc mc -> acc + Exec.busy_cycles mc.m_ex) 0 machines
  in
  {
    fr_machines = n;
    fr_policy = Dispatch.name cfg.fc_policy;
    fr_local_policy = Dispatch.name local_policy;
    fr_backend = Exec.backend_name cfg.fc_backend;
    fr_workload = Workload.describe cfg.fc_workload;
    fr_offered_rps = Workload.offered_rps cfg.fc_workload;
    fr_duration_us = duration_us;
    fr_ghz = ghz;
    fr_window_cycles = w_c;
    fr_windows = !windows;
    fr_arrivals = fcount Counter.Service_arrivals;
    fr_completed = !completed;
    fr_failed = fcount Counter.Service_failed;
    fr_retries = fcount Counter.Net_retries;
    fr_nacks = fcount Counter.Net_nacks;
    fr_net_msgs = fcount Counter.Net_msgs;
    fr_net_drops = fcount Counter.Net_drops;
    fr_gossip_msgs = fcount Counter.Gossip_msgs;
    fr_ejects = fcount Counter.Machine_ejects;
    fr_elapsed_cycles = !elapsed;
    fr_throughput_rps =
      (if elapsed_s > 0.0 then float_of_int !completed /. elapsed_s else 0.0);
    fr_utilization =
      (if total_worker_cycles > 0 then
         float_of_int busy /. float_of_int total_worker_cycles
       else 0.0);
    fr_total = h_e2e;
    fr_queue = merged Exec.h_queue;
    fr_service = merged Exec.h_service;
    fr_m_names =
      Array.mapi (fun m mc -> Printf.sprintf "m%d:%s" m mc.m_spec.ms_name) machines;
    fr_m_completed =
      Array.map (fun mc -> mcount mc Counter.Service_completions) machines;
    fr_m_busy = Array.map (fun mc -> Exec.busy_cycles mc.m_ex) machines;
    fr_m_counters =
      Array.map (fun mc -> Counter.to_list (Sched.counters mc.m_k)) machines;
    fr_slo_good = !slo_good;
    fr_slo_total = !slo_total;
    fr_hedges = fcount Counter.Hedge_sent;
    fr_hedge_wins = fcount Counter.Hedge_won;
    fr_hedge_cancels = fcount Counter.Hedge_cancel;
    fr_admission_shed = fcount Counter.Admission_shed;
    fr_corrupt_retries = fcount Counter.Corrupt_retry;
    fr_steals = msum Counter.Peer_steal;
    fr_brownouts = !brownouts;
    fr_nic_rx = msum Counter.Nic_rx_pkts;
    fr_nic_drops = msum Counter.Nic_rx_drops;
    fr_nic_irqs = msum Counter.Nic_irqs;
    fr_nic_polls = msum Counter.Nic_polls;
    fr_nic_empty_polls = msum Counter.Nic_poll_empty;
    fr_nic_wasted_cycles = Nic_driver.poll_cost * msum Counter.Nic_poll_empty;
    fr_nic_switches =
      Array.fold_left
        (fun acc mc ->
          match mc.m_nic with
          | Some (_, drv) -> acc + Nic_driver.switches drv
          | None -> acc)
        0 machines;
    fr_nic_recovers = msum Counter.Nic_irq_recover;
    fr_nic_tx = msum Counter.Nic_tx_pkts;
    fr_series =
      (match series with
      | Some s ->
          Iw_obs.Series.publish s;
          Some s
      | None -> None);
  }
