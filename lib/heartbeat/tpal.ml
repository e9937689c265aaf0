open Iw_engine
open Iw_hw
open Iw_kernel

type range = { items : int; grain : int }
type bench = { bench_name : string; ranges : range list }

(* Shapes after the TPAL paper's suite: equal total work (~8M cycles
   serial), very different grain structure. *)
let plus_reduce =
  { bench_name = "plus-reduce"; ranges = [ { items = 160_000_000; grain = 4 } ] }

let spmv =
  {
    bench_name = "spmv";
    ranges =
      [
        { items = 8_000_000; grain = 10 };
        { items = 4_000_000; grain = 30 };
        { items = 4_800_000; grain = 60 };
        { items = 3_600_000; grain = 45 };
      ];
  }

let mandelbrot =
  { bench_name = "mandelbrot"; ranges = [ { items = 3_200_000; grain = 200 } ] }

let srad =
  {
    bench_name = "srad";
    ranges =
      [ { items = 8_000_000; grain = 50 }; { items = 4_800_000; grain = 50 } ];
  }

let floyd_warshall =
  {
    bench_name = "floyd-warshall";
    ranges = [ { items = 6_400_000; grain = 100 } ];
  }

let kmeans =
  {
    bench_name = "kmeans";
    ranges =
      [ { items = 25_600_000; grain = 20 }; { items = 6_400_000; grain = 20 } ];
  }

let suite = [ plus_reduce; spmv; mandelbrot; srad; floyd_warshall; kmeans ]

let total_items b = List.fold_left (fun acc r -> acc + r.items) 0 b.ranges

let total_work b =
  List.fold_left (fun acc r -> acc + (r.items * r.grain)) 0 b.ranges

let serial_cycles = total_work

type driver = Nk_ipi | Linux_signal

type config = { workers : int; heartbeat_us : float; driver : driver; seed : int }

type report = {
  bench : string;
  os : string;
  workers : int;
  heartbeat_us : float;
  elapsed_cycles : int;
  work_cycles : int;
  overhead_cycles : int;
  overhead_pct : float;
  promotions : int;
  steals : int;
  deliveries : int;
  target_rate_hz : float;
  achieved_rate_hz : float;
  rate_cv : float;
  speedup_vs_serial : float;
}

(* ------------------------------------------------------------------ *)

type task = { t_items : int; t_grain : int }

type exec = { mutable e_items : int; e_grain : int }

type wstate = {
  wid : int;
  dq : task Deque.t;
  mutable cur : exec option;
  mutable wthread : Sched.thread option;
}

type shared = {
  k : Sched.t;
  ws : wstate array;
  promote_div : int;
  mutable remaining : int;
  mutable promotions : int;
  mutable steals : int;
  mutable deliveries : int;
  gaps : Stats.t;
  last_beat : int array;
  srng : Rng.t;
  mutable finish : int;  (* sim time when the workload completed *)
}

let promotion_check_cost = 60
let promotion_cost = 120

(* Heartbeat arrival on [cpu], in interrupt context.  If the worker is
   mid-range with at least two items left, split off the upper half as
   a stealable task and shrink both the execution record and the
   cycles the scheduler still owes the thread. *)
let on_heartbeat sh cpu ~preempted =
  sh.deliveries <- sh.deliveries + 1;
  let obs = Sched.obs sh.k in
  Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Heartbeats;
  let now = Sched.now sh.k in
  if sh.last_beat.(cpu) >= 0 then
    Stats.add_int sh.gaps (now - sh.last_beat.(cpu));
  sh.last_beat.(cpu) <- now;
  let cost = ref promotion_check_cost in
  (if preempted >= 0 then begin
     let r = preempted in
     let w = sh.ws.(cpu) in
      let promoted =
        match (w.cur, Sched.current_thread sh.k cpu, w.wthread) with
        | Some e, Some running, Some mine
          when Sched.thread_id running = Sched.thread_id mine ->
            let rem = r / e.e_grain in
            if rem >= sh.promote_div then begin
              let promote = rem / sh.promote_div in
              Deque.push_bottom w.dq { t_items = promote; t_grain = e.e_grain };
              e.e_items <- e.e_items - promote;
              sh.promotions <- sh.promotions + 1;
              Iw_obs.Counter.incr obs.Iw_obs.Obs.counters
                Iw_obs.Counter.Promotions;
              if obs.Iw_obs.Obs.trace.Iw_obs.Trace.enabled then
                Iw_obs.Trace.instant obs.Iw_obs.Obs.trace ~name:"promote"
                  ~cat:"heartbeat" ~cpu ~ts:now ();
              cost := !cost + promotion_cost;
              Sched.stash_preempted sh.k cpu (r - (promote * e.e_grain));
              true
            end
            else false
        | _ -> false
      in
     if not promoted then Sched.stash_preempted sh.k cpu r
   end);
  !cost

let worker_body sh w () =
  let plat = Sched.platform sh.k in
  let costs = plat.Platform.costs in
  let obs = Sched.obs sh.k in
  let nworkers = Array.length sh.ws in
  let execute t =
    let e = { e_items = t.t_items; e_grain = t.t_grain } in
    w.cur <- Some e;
    Coro.consume (t.t_items * t.t_grain);
    w.cur <- None;
    (* Promotions shrank [e]; what remains in it is what we ran. *)
    sh.remaining <- sh.remaining - e.e_items;
    Api.overhead costs.atomic_rmw
  in
  let rec loop backoff =
    if sh.remaining > 0 then begin
      match Deque.pop_bottom w.dq with
      | Some t ->
          Api.overhead 20;
          execute t;
          loop 150
      | None ->
          if nworkers = 1 then loop backoff
          else begin
            let victim =
              let v = Rng.int sh.srng (nworkers - 1) in
              if v >= w.wid then v + 1 else v
            in
            Api.overhead (costs.atomic_rmw + costs.cache_line_remote);
            match Deque.steal_top sh.ws.(victim).dq with
            | Some t ->
                sh.steals <- sh.steals + 1;
                Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Steals;
                (let tr = obs.Iw_obs.Obs.trace in
                 if tr.Iw_obs.Trace.enabled then
                   Iw_obs.Trace.instant tr ~name:"steal" ~cat:"heartbeat"
                     ~cpu:w.wid ~ts:(Sched.now sh.k) ());
                execute t;
                loop 150
            | None ->
                Api.overhead backoff;
                loop (min (backoff * 2) 30_000)
          end
    end
  in
  loop 150

let install_nk_driver sh ~period =
  let k = sh.k in
  let plat = Sched.platform k in
  let costs = plat.Platform.costs in
  let nworkers = Array.length sh.ws in
  let others =
    List.init (nworkers - 1) (fun i -> Sched.cpu k (i + 1))
  in
  (* Under an active fault plan the wire may drop or delay heartbeats;
     switch the broadcast to the acknowledged, resending variant.  The
     quiet-wire path keeps the plain fire-and-forget broadcast, which
     is byte-identical to the historical behavior. *)
  let bcast =
    if Iw_faults.Plan.enabled (Iw_faults.Plan.ambient ()) then
      Reliable_ipi.broadcast ?timeout:None
    else Ipi.broadcast
  in
  Lapic.periodic (Sched.lapic k 0) ~period
    ~handler:(fun ~preempted ->
      (* CPU 0 takes the timer vector, broadcasts one ICR write, and
         handles its own heartbeat. *)
      let c = on_heartbeat sh 0 ~preempted in
      bcast (Sched.sim k) plat ~targets:others
        ~handler:(fun cpu ~preempted -> on_heartbeat sh cpu ~preempted)
        ~after:(fun cpu -> Sched.resched_or_resume k cpu);
      c + costs.ipi_send)
    ~after:(fun () -> Sched.resched_or_resume k 0)
    ()

let install_linux_driver sh ~period =
  Array.map
    (fun w ->
      let t =
        Iw_linuxsim.Itimer.create sh.k ~cpu:w.wid ~period
          ~handler_cost:promotion_cost
          ~handler:(fun ~preempted -> ignore (on_heartbeat sh w.wid ~preempted))
          ()
      in
      Iw_linuxsim.Itimer.start t;
      t)
    sh.ws

(* Watchdog: detects a worker that has gone [watchdog_mult] periods
   without a heartbeat (dropped IPIs the resends also lost, a dead
   timer stream) and falls back to software polling — the promotion
   check is delivered locally, without the broken wire.  Promotion
   still happens, just later; this is the software layer backstopping
   the hardware path, one level above the IPI resend machinery.

   Only installed when a fault plan is active: on a perfect machine
   the checks would all be no-ops, and not arming them keeps the
   fault-free event schedule untouched. *)
let watchdog_mult = 4
let soft_poll_cost = 200

let install_watchdog sh ~period =
  let k = sh.k in
  let s = Sched.sim k in
  let costs = (Sched.platform k).Platform.costs in
  let obs = Sched.obs k in
  Array.iter
    (fun w ->
      let cpu = w.wid in
      let tm = Sim.timer s in
      let rec arm () = Sim.arm_after s tm (watchdog_mult * period) check
      and check () =
        if sh.remaining > 0 then begin
          let now = Sim.now s in
          if now - max 0 sh.last_beat.(cpu) >= watchdog_mult * period then begin
            Iw_obs.Counter.incr obs.Iw_obs.Obs.counters
              Iw_obs.Counter.Watchdog_fire;
            (let tr = obs.Iw_obs.Obs.trace in
             if tr.Iw_obs.Trace.enabled then
               Iw_obs.Trace.instant tr ~name:"watchdog_fire" ~cat:"heartbeat"
                 ~cpu ~ts:now ());
            Cpu.interrupt (Sched.cpu k cpu)
              ~dispatch:costs.Platform.interrupt_dispatch
              ~return_cost:costs.Platform.interrupt_return
              ~handler:(fun ~preempted ->
                on_heartbeat sh cpu ~preempted + soft_poll_cost)
              ~after:(fun () -> Sched.resched_or_resume k cpu)
          end;
          arm ()  (* stops re-arming once the workload drains *)
        end
      in
      arm ())
    sh.ws

let run ?(promote_div = 2) plat (config : config) bench =
  if config.workers < 1 then invalid_arg "Tpal.run: workers < 1";
  let plat = Platform.with_cores plat config.workers in
  let personality =
    match config.driver with
    | Nk_ipi -> Os.nautilus plat
    | Linux_signal -> Os.linux plat
  in
  let k = Sched.boot ~seed:config.seed ~personality plat in
  let sh =
    {
      k;
      ws =
        Array.init config.workers (fun wid ->
            { wid; dq = Deque.create (); cur = None; wthread = None });
      promote_div = max 2 promote_div;
      remaining = total_items bench;
      promotions = 0;
      steals = 0;
      deliveries = 0;
      gaps = Stats.create ();
      last_beat = Array.make config.workers (-1);
      srng = Rng.split (Sim.rng (Sched.sim k));
      finish = 0;
    }
  in
  (* All initial work lands on worker 0; heartbeat promotion and
     stealing spread it. *)
  List.iter
    (fun r -> Deque.push_bottom sh.ws.(0).dq { t_items = r.items; t_grain = r.grain })
    bench.ranges;
  let period = Platform.cycles_of_us plat config.heartbeat_us in
  let workers =
    Array.map
      (fun w ->
        let th =
          Sched.spawn k
            ~spec:
              {
                Sched.sp_name = Printf.sprintf "tpal-%d" w.wid;
                sp_cpu = Some w.wid;
                sp_fp = false;
                sp_rt = false;
              }
            (worker_body sh w)
        in
        w.wthread <- Some th;
        th)
      sh.ws
  in
  let itimers = ref [||] in
  (match config.driver with
  | Nk_ipi -> install_nk_driver sh ~period
  | Linux_signal -> itimers := install_linux_driver sh ~period);
  if Iw_faults.Plan.enabled (Iw_faults.Plan.ambient ()) then
    install_watchdog sh ~period;
  (* A supervisor joins the workers and dismantles the drivers. *)
  ignore
    (Sched.spawn k
       ~spec:
         { Sched.sp_name = "tpal-main"; sp_cpu = Some 0; sp_fp = false; sp_rt = false }
       (fun () ->
         Array.iter Api.join workers;
         sh.finish <- Api.now ();
         Array.iter Iw_linuxsim.Itimer.stop !itimers));
  Sched.run_until k (200 * serial_cycles bench);
  if sh.remaining > 0 then
    failwith
      (Printf.sprintf "tpal: %s did not finish (%d items left)"
         bench.bench_name sh.remaining);
  let elapsed = sh.finish in
  let work = Sched.total_work_cycles k in
  let overhead = Sched.total_overhead_cycles k in
  let ghz = plat.Platform.ghz in
  let seconds = float_of_int elapsed /. (ghz *. 1e9) in
  {
    bench = bench.bench_name;
    os = personality.Os.os_name;
    workers = config.workers;
    heartbeat_us = config.heartbeat_us;
    elapsed_cycles = elapsed;
    work_cycles = work;
    overhead_cycles = overhead;
    overhead_pct =
      100.0 *. float_of_int overhead /. float_of_int (max 1 (work + overhead));
    promotions = sh.promotions;
    steals = sh.steals;
    deliveries = sh.deliveries;
    target_rate_hz = 1e6 /. config.heartbeat_us;
    achieved_rate_hz =
      float_of_int sh.deliveries /. float_of_int config.workers /. seconds;
    rate_cv = Stats.coefficient_of_variation sh.gaps;
    speedup_vs_serial =
      float_of_int (serial_cycles bench) /. float_of_int elapsed;
  }
