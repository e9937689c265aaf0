open Iw_engine
open Iw_kernel
module Counter = Iw_obs.Counter

type os = Nk | Linux

let os_name = function Nk -> "nk" | Linux -> "linux"
let os_of_string = function "nk" -> Some Nk | "linux" -> Some Linux | _ -> None
let personality = function Nk -> Os.nautilus | Linux -> Os.linux

type backend = Exec.backend =
  | Fiber_exec
  | Virtine_exec of { vconfig : Iw_virtine.Wasp.config; pool : int }

let backend_name = Exec.backend_name

type config = {
  os : os;
  plat : Iw_hw.Platform.t;
  workers : int;
  workload : Workload.spec;
  policy : Dispatch.policy;
  order : Squeue.order;
  queue_cap : int;
  backend : backend;
  work_us : float;
  hi_frac : float;
  demand : Workload.demand;
  seed : int;
}

let default ~plat =
  {
    os = Nk;
    plat;
    workers = 8;
    workload = Workload.Poisson { rps = 20_000.0; duration_us = 100_000.0 };
    policy = Dispatch.Po2;
    order = Squeue.Fifo;
    queue_cap = 64;
    backend = Fiber_exec;
    work_us = 150.0;
    hi_frac = 0.0;
    demand = Workload.Dfixed;
    seed = 42;
  }

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
  rep_shed : int;
  rep_backpressure : int;
  rep_elapsed_cycles : int;
  rep_busy_cycles : int;
  rep_throughput_rps : float;
  rep_utilization : float;
  rep_pool_hits : int;
  rep_spawns : int;
  rep_run_minor_words : float;
  rep_run_major_words : float;
  rep_arena_capacity : int;
  rep_arena_grows : int;
  rep_queue : Hist.t;
  rep_service : Hist.t;
  rep_total : Hist.t;
  rep_total_corrected : Hist.t;
      (* sojourn measured from the intended (drawn) send time:
         coordinated-omission-corrected open-loop latency *)
  rep_steals : int;
  rep_series : Iw_obs.Series.t option;
}

let us_of_cycles rep c = float_of_int c /. (rep.rep_ghz *. 1e3)
let percentile_us rep h p = us_of_cycles rep (Hist.percentile h p)
let mean_us rep h = Hist.mean h /. (rep.rep_ghz *. 1e3)

(* Dedicated stream roots: the plane's draws must not perturb (or be
   perturbed by) kernel-side draws from the boot seed. *)
let rng_salt = 0x5E21CE

(* The open-loop load generator as a flat state machine (the worker
   side lives in [Exec]).  [l_state]: 0 = draw next arrival, 1 =
   woken at the arrival time, 2 = submit overhead paid, 3 = stop
   broadcast. *)
type loadgen = {
  l_fl : Sched.flat;
  mutable l_state : int;
  mutable l_bc : int;
  mutable l_target : int;  (* intended (drawn) send cycle of this arrival *)
}

let run cfg =
  if cfg.workers < 1 then invalid_arg "Plane.run: workers must be >= 1";
  (match cfg.workload with
  | Workload.Closed { clients; _ } when clients < 1 ->
      invalid_arg "Plane.run: clients must be >= 1"
  | _ -> ());
  (* Workers on CPUs 0..workers-1, load generation on a dedicated
     frontend CPU so client-side costs never steal worker cycles. *)
  let ncpus = cfg.workers + 1 in
  let plat = Iw_hw.Platform.with_cores cfg.plat ncpus in
  let frontend = cfg.workers in
  let k =
    Sched.boot ~seed:cfg.seed ~personality:(personality cfg.os plat) plat
  in
  let obs = Sched.obs k in
  let ctr = obs.Iw_obs.Obs.counters in
  let tr = obs.Iw_obs.Obs.trace in
  let costs = plat.Iw_hw.Platform.costs in
  let cyc us = Iw_hw.Platform.cycles_of_us plat us in
  let duration_c = cyc (Workload.duration_us cfg.workload) in
  let submit_cost =
    costs.Iw_hw.Platform.atomic_rmw + costs.Iw_hw.Platform.cache_line_remote
  in

  let base = Rng.create ~seed:(cfg.seed lxor rng_salt) in
  let arrival_rng = Rng.split base in
  let dispatch_rng = Rng.split base in
  let prio_rng = Rng.split base in
  let think_rng = Rng.split base in

  let replies =
    match cfg.workload with
    | Workload.Closed { clients; _ } ->
        Array.init clients (fun _ -> Sched.semaphore ~init:0)
    | _ -> [||]
  in

  (* The machine role — queues, doorbells, dispatch, arena, backend,
     flat workers — extracted to [Exec] (the fleet boots the same
     executor once per machine). *)
  let ex =
    Exec.create ~k ~workers:cfg.workers ~order:cfg.order
      ~queue_cap:cfg.queue_cap ~backend:cfg.backend ~work_us:cfg.work_us
      ~policy:cfg.policy ~dispatch_rng ~wasp_seed:(cfg.seed + 17)
      ~demand:cfg.demand ~demand_seed:(cfg.seed + 23)
      ~mode:(Exec.Standalone replies) ()
  in
  let doorbells = Exec.doorbells ex in

  (* Online telemetry (ambient --sample-us): every period of virtual
     time, snapshot counter deltas, queue depth, and windowed latency
     percentiles into a preallocated ring.  Sampling is pure reads
     plus writes into the series' own ring, and the timer is disarmed
     the moment the stop protocol fires (it would otherwise keep the
     drained simulator alive), so elapsed time and every table stay
     byte-identical with sampling off. *)
  let sim = Sched.sim k in
  let sample_c = Iw_obs.Series.period_cycles ~cyc in
  let series =
    if sample_c = 0 then None
    else begin
      let wins = Array.map Hist.window (Exec.h_total ex) in
      let count name id =
        Iw_obs.Series.dcol ~name (fun () -> Counter.get ctr id)
      in
      let s =
        Iw_obs.Series.create ~name:"plane"
          ~cols:
            [
              count "arrivals" Counter.Service_arrivals;
              count "admitted" Counter.Service_admitted;
              count "completed" Counter.Service_completions;
              count "shed" Counter.Service_shed;
              Iw_obs.Series.col ~name:"depth" (fun () -> Exec.depth ex);
              Iw_obs.Series.col ~name:"p50_cyc" (fun () ->
                  Hist.win_percentile_many wins 50.0);
              Iw_obs.Series.col ~name:"p99_cyc" (fun () ->
                  Hist.win_percentile_many wins 99.0);
            ]
          ~post:[ (fun () -> Array.iter Hist.win_advance wins) ]
          ()
      in
      let tm = Iw_engine.Sim.timer sim in
      let rec fire () =
        Iw_obs.Series.sample s ~ts:(Iw_engine.Sim.now sim);
        Iw_engine.Sim.arm_after sim tm sample_c fire
      in
      Iw_engine.Sim.arm_after sim tm sample_c fire;
      Exec.set_on_stop ex (fun () -> Iw_engine.Sim.disarm sim tm);
      Some s
    end
  in

  (* ---------------------------------------------------------------- *)
  (* Load generation *)

  (match cfg.workload with
  | Workload.Closed { clients; think_us; duration_us = _ } ->
      (* Closed loops stay coroutines: client count is small and fixed,
         and each client spends its life blocked on think or reply. *)
      let submit_cl c =
        Counter.incr ctr Counter.Service_arrivals;
        Api.overhead submit_cost;
        let hi = Rng.chance prio_rng cfg.hi_frac in
        let qi =
          Exec.try_enqueue ex ~intended:(-1) ~hi ~arrival:(Api.now ()) ~reply:c
        in
        if qi >= 0 then begin
          Api.sem_post doorbells.(qi);
          true
        end
        else false
      in
      let live = ref clients in
      for c = 0 to clients - 1 do
        let crng = Rng.split think_rng in
        ignore
          (Sched.spawn k
             ~spec:
               {
                 Sched.sp_name = Printf.sprintf "client-%d" c;
                 sp_cpu = Some frontend;
                 sp_fp = false;
                 sp_rt = false;
               }
             (fun () ->
               let rec loop () =
                 let think = Rng.exponential crng ~mean:think_us in
                 Api.sleep (max 1 (cyc think));
                 if Api.now () <= duration_c then begin
                   let rec try_submit () =
                     if not (submit_cl c) then begin
                       Counter.incr ctr Counter.Service_backpressure;
                       (* Closed loops back off instead of shedding. *)
                       Api.sleep (max 1 (cyc (cfg.work_us *. 2.0)));
                       try_submit ()
                     end
                   in
                   try_submit ();
                   Api.sem_wait replies.(c);
                   loop ()
                 end
               in
               loop ();
               decr live;
               if !live = 0 && Exec.end_generation ex then
                 Array.iter (fun d -> Api.sem_post d) doorbells))
      done
  | _ ->
      let g = Workload.gen cfg.workload ~rng:arrival_rng in
      Workload.set_ghz g plat.Iw_hw.Platform.ghz;
      let lg =
        {
          l_fl =
            Sched.spawn_flat k
              ~spec:
                {
                  Sched.sp_name = "loadgen";
                  sp_cpu = Some frontend;
                  sp_fp = false;
                  sp_rt = false;
                }
              ();
          l_state = 0;
          l_bc = 0;
          l_target = 0;
        }
      in
      let rec lg_activation lg =
        if lg.l_state = 0 then begin
          let target = Workload.next_cycles g in
          if target < 0 then begin
            if Exec.end_generation ex then begin
              lg.l_bc <- 0;
              lg.l_state <- 3;
              lg_activation lg
            end
            else Sched.flat_exit k lg.l_fl
          end
          else begin
            lg.l_target <- target;
            let now = Sched.now k in
            if target > now then begin
              lg.l_state <- 1;
              Sched.flat_sleep k lg.l_fl (target - now)
            end
            else lg_submit lg
          end
        end
        else if lg.l_state = 1 then lg_submit lg
        else if lg.l_state = 2 then lg_push lg
        else if lg.l_state = 3 then begin
          if lg.l_bc < cfg.workers then begin
            let i = lg.l_bc in
            lg.l_bc <- i + 1;
            Sched.flat_sem_post k lg.l_fl doorbells.(i)
          end
          else Sched.flat_exit k lg.l_fl
        end
        else assert false

      and lg_submit lg =
        Counter.incr ctr Counter.Service_arrivals;
        lg.l_state <- 2;
        Sched.flat_overhead k lg.l_fl submit_cost

      and lg_push lg =
        let hi = Rng.chance prio_rng cfg.hi_frac in
        let now = Sched.now k in
        let qi =
          Exec.try_enqueue ex ~intended:lg.l_target ~hi ~arrival:now ~reply:(-1)
        in
        if qi >= 0 then begin
          lg.l_state <- 0;
          Sched.flat_sem_post k lg.l_fl doorbells.(qi)
        end
        else begin
          Counter.incr ctr Counter.Service_shed;
          if Iw_obs.Trace.enabled tr then
            Iw_obs.Trace.instant tr ~name:"service:shed" ~cat:"service"
              ~cpu:frontend ~ts:now ();
          lg.l_state <- 0;
          lg_activation lg
        end
      in
      Sched.set_flat_step lg.l_fl (fun () -> lg_activation lg));

  (* Steady-state allocation is the run phase's measured quantity:
     everything above was setup, everything below is readout.  Minor
     words come from [Gc.minor_words], which counts the live minor
     heap too: [quick_stat]'s figure moves only at minor collections,
     so it would depend on how full the heap was when the run began. *)
  let st0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  Sched.run k;
  let run_minor = Gc.minor_words () -. w0 in
  let st1 = Gc.quick_stat () in
  let run_major = st1.Gc.major_words -. st0.Gc.major_words in

  let elapsed = Sched.now k in
  let elapsed_s = Iw_hw.Platform.us_of_cycles plat elapsed /. 1e6 in
  let busy = Exec.busy_cycles ex in
  let completed = Counter.get ctr Counter.Service_completions in
  {
    rep_os = os_name cfg.os;
    rep_backend = backend_name cfg.backend;
    rep_policy = Dispatch.name cfg.policy;
    rep_order = Squeue.order_name cfg.order;
    rep_workload = Workload.describe cfg.workload;
    rep_offered_rps = Workload.offered_rps cfg.workload;
    rep_duration_us = Workload.duration_us cfg.workload;
    rep_ghz = plat.Iw_hw.Platform.ghz;
    rep_arrivals = Counter.get ctr Counter.Service_arrivals;
    rep_admitted = Counter.get ctr Counter.Service_admitted;
    rep_completed = completed;
    rep_shed = Counter.get ctr Counter.Service_shed;
    rep_backpressure = Counter.get ctr Counter.Service_backpressure;
    rep_elapsed_cycles = elapsed;
    rep_busy_cycles = busy;
    rep_throughput_rps =
      (if elapsed_s > 0.0 then float_of_int completed /. elapsed_s else 0.0);
    rep_utilization =
      (if elapsed > 0 then
         float_of_int busy /. float_of_int (cfg.workers * elapsed)
       else 0.0);
    rep_pool_hits =
      (match Exec.wasp ex with
      | Some w -> Iw_virtine.Wasp.pool_hits w
      | None -> 0);
    rep_spawns =
      (match Exec.wasp ex with
      | Some w -> Iw_virtine.Wasp.spawned w
      | None -> 0);
    rep_run_minor_words = run_minor;
    rep_run_major_words = run_major;
    rep_arena_capacity = Exec.arena_capacity ex;
    rep_arena_grows = Exec.arena_grows ex;
    rep_queue = Hist.merge_all (Exec.h_queue ex);
    rep_service = Hist.merge_all (Exec.h_service ex);
    rep_total = Hist.merge_all (Exec.h_total ex);
    rep_total_corrected = Exec.h_corrected ex;
    rep_steals = Counter.get ctr Counter.Peer_steal;
    rep_series =
      (match series with
      | Some s ->
          Iw_obs.Series.publish s;
          Some s
      | None -> None);
  }
