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

type driver = Nk_ipi | Linux_signal

type config = { workers : int; heartbeat_us : float; driver : driver; seed : int }

type report = {
  bench : string;
  os : string;
  workers : int;
  heartbeat_us : float;
  elapsed_cycles : int;
  work_cycles : int;
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
(* The heartbeat core, shared by both task shapes: one kernel boot,
   steal loop, pair of signal drivers, watchdog and supervisor. *)

(* What a task shape supplies.  [pop] and [steal] run the task they
   find on the calling worker and say whether they found one. *)
type shape = {
  left : unit -> int;  (* units of work not yet run; 0 ends the run *)
  pop : int -> bool;  (* [pop wid]: a task from [wid]'s own deques *)
  steal : int -> int -> bool;  (* [steal thief victim] *)
  promote : int -> preempted:int -> int;
      (* A beat on a CPU, in interrupt context: maybe promote latent
         work, and return the handler's cost. *)
}

type core = {
  k : Sched.t;
  nworkers : int;
  srng : Rng.t;  (* victim choice *)
  mutable threads : Sched.thread array;  (* worker [i] runs on CPU [i] *)
  last_beat : int array;  (* per CPU; -1 before its first beat *)
  gaps : Stats.t;  (* every CPU's inter-beat gaps, for [rate_cv] *)
  mutable finish : int;  (* sim time when the workload completed *)
}

let promotion_check_cost = 60
let promotion_cost = 120

let on_beat c sh cpu ~preempted =
  let now = Sched.now c.k in
  if c.last_beat.(cpu) >= 0 then Stats.add_int c.gaps (now - c.last_beat.(cpu));
  c.last_beat.(cpu) <- now;
  sh.promote cpu ~preempted

let worker_body c sh wid () =
  let costs = (Sched.platform c.k).Platform.costs in
  let rec loop backoff =
    if sh.left () > 0 then begin
      if sh.pop wid then loop 150
      else if c.nworkers = 1 then loop backoff
      else begin
        let victim =
          let v = Rng.int c.srng (c.nworkers - 1) in
          if v >= wid then v + 1 else v
        in
        Api.overhead (costs.atomic_rmw + costs.cache_line_remote);
        if sh.steal wid victim then loop 150
        else begin
          Api.overhead backoff;
          loop (min (backoff * 2) 30_000)
        end
      end
    end
  in
  loop 150

(* CPU 0 takes the LAPIC timer vector, handles its own beat and sends
   one IPI per other worker: the §IV-B Nautilus mechanism, one tick
   fanned out to every worker.  Each target's send is built once; on
   the quiet wire it is a prebuilt {!Ipi.delivery}, so a beat's
   fan-out allocates nothing.  Under an active fault plan the wire may
   drop or delay an IPI, so the sends become the acknowledged,
   resending kind. *)
let install_nk_driver c beat ~period =
  let k = c.k in
  let plat = Sched.platform k in
  let s = Sched.sim k in
  let reliable = Iw_faults.Plan.enabled (Iw_faults.Plan.ambient ()) in
  let sends =
    Array.init (c.nworkers - 1) (fun i ->
        let cpu = i + 1 in
        let target = Sched.cpu k cpu
        and handler ~preempted = beat cpu ~preempted
        and after = Sched.resched_or_resume k cpu in
        if reliable then fun () ->
          Reliable_ipi.send s plat ~target ~handler ~after
        else
          let d = Ipi.delivery s plat ~target ~handler ~after in
          fun () -> Ipi.send d)
  in
  Lapic.periodic (Sched.lapic k 0) ~period
    ~handler:(fun ~preempted ->
      let cost = beat 0 ~preempted in
      Array.iter (fun send -> send ()) sends;
      cost + plat.Platform.costs.ipi_send)
    ~after:(Sched.resched_or_resume k 0)
    ()

(* One POSIX interval timer and signal chain per worker. *)
let install_linux_driver c beat ~period =
  Array.init c.nworkers (fun cpu ->
      let t =
        Iw_linuxsim.Itimer.create c.k ~cpu ~period ~handler_cost:promotion_cost
          ~handler:(fun ~preempted -> ignore (beat cpu ~preempted))
          ()
      in
      Iw_linuxsim.Itimer.start t;
      t)

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

let install_watchdog c sh beat ~period =
  let k = c.k in
  let s = Sched.sim k in
  let obs = Sched.obs k in
  for cpu = 0 to c.nworkers - 1 do
    let tm = Sim.timer s in
    let soft_beat ~preempted = beat cpu ~preempted + soft_poll_cost in
    let rec arm () = Sim.arm_after s tm (watchdog_mult * period) check
    and check () =
      if sh.left () > 0 then begin
        let now = Sim.now s in
        if now - max 0 c.last_beat.(cpu) >= watchdog_mult * period then begin
          Iw_obs.Counter.incr obs.Iw_obs.Obs.counters
            Iw_obs.Counter.Watchdog_fire;
          (let tr = obs.Iw_obs.Obs.trace in
           if tr.Iw_obs.Trace.enabled then
             Iw_obs.Trace.instant tr ~name:"watchdog_fire" ~cat:"heartbeat" ~cpu
               ~ts:now ());
          Cpu.interrupt (Sched.cpu k cpu) ~handler:soft_beat
            ~after:(Sched.resched_or_resume k cpu)
        end;
        arm ()  (* stops re-arming once the workload drains *)
      end
    in
    arm ()
  done

(* Boot the kernel the driver implies, let [make] lay out the work,
   spawn worker [i] as [prefix-i] on CPU [i], install the driver (and,
   under a fault plan, the watchdog), and run to [horizon] under a
   supervisor that joins the workers and dismantles the drivers.  A
   config it cannot run is refused first, naming the [entry] point and
   the field. *)
let run_core ~entry ~prefix ~name ~horizon ~driver plat ~workers ~heartbeat_us
    ~seed make =
  let reject what = invalid_arg (entry ^ ": " ^ what) in
  if workers < 1 then reject "workers must be >= 1";
  let period = Platform.cycles_of_us plat heartbeat_us in
  if not (heartbeat_us > 0.0) || period < 1 then
    reject "heartbeat_us must give a period of at least one cycle";
  let plat = Platform.with_cores plat workers in
  let personality =
    match driver with
    | Nk_ipi -> Os.nautilus plat
    | Linux_signal -> Os.linux plat
  in
  let k = Sched.boot ~seed ~personality plat in
  let c =
    {
      k;
      nworkers = workers;
      srng = Rng.split (Sim.rng (Sched.sim k));
      threads = [||];
      last_beat = Array.make workers (-1);
      gaps = Stats.create ();
      finish = 0;
    }
  in
  let sh = make c in
  let spec name cpu =
    { Sched.sp_name = name; sp_cpu = Some cpu; sp_fp = false; sp_rt = false }
  in
  c.threads <-
    Array.init workers (fun wid ->
        Sched.spawn k
          ~spec:(spec (Printf.sprintf "%s-%d" prefix wid) wid)
          (worker_body c sh wid));
  let beat = on_beat c sh in
  let itimers =
    match driver with
    | Nk_ipi ->
        install_nk_driver c beat ~period;
        [||]
    | Linux_signal -> install_linux_driver c beat ~period
  in
  if Iw_faults.Plan.enabled (Iw_faults.Plan.ambient ()) then
    install_watchdog c sh beat ~period;
  ignore
    (Sched.spawn k ~spec:(spec (prefix ^ "-main") 0) (fun () ->
         Array.iter Api.join c.threads;
         c.finish <- Api.now ();
         Array.iter Iw_linuxsim.Itimer.stop itimers));
  Sched.run_until k horizon;
  if sh.left () > 0 then
    failwith
      (Printf.sprintf "%s: %s did not finish (%d left)" prefix name (sh.left ()));
  c

let overhead_pct k =
  let work = Sched.total_work_cycles k in
  let overhead = Sched.total_overhead_cycles k in
  100.0 *. float_of_int overhead /. float_of_int (max 1 (work + overhead))

(* ------------------------------------------------------------------ *)
(* Ranges: a worker runs a range as one consume; a beat splits off
   1/div of what remains of it as a stealable task. *)

(* A task sits in the ring as two ints, its items then its grain, so
   a promotion, a pop and a steal allocate nothing.  The range a
   worker is running lives in the worker's one execution slot. *)
type rworker = {
  dq : int Deque.t;
  mutable busy : bool;  (* the slot holds the range being consumed *)
  mutable e_items : int;  (* promotions shrink it as it runs *)
  mutable e_grain : int;
}

let push_task dq ~items ~grain =
  Deque.push_bottom dq items;
  Deque.push_bottom dq grain

let range_shape ~div bench c =
  let k = c.k in
  let costs = (Sched.platform k).Platform.costs in
  let obs = Sched.obs k in
  let counters = obs.Iw_obs.Obs.counters and tr = obs.Iw_obs.Obs.trace in
  let ws =
    Array.init c.nworkers (fun _ ->
        { dq = Deque.create 0; busy = false; e_items = 0; e_grain = 0 })
  in
  let remaining = ref (total_items bench) in
  (* All initial work lands on worker 0; heartbeat promotion and
     stealing spread it. *)
  List.iter (fun r -> push_task ws.(0).dq ~items:r.items ~grain:r.grain)
    bench.ranges;
  let execute w ~items ~grain =
    w.busy <- true;
    w.e_items <- items;
    w.e_grain <- grain;
    Coro.consume (items * grain);
    w.busy <- false;
    (* Promotions shrank the slot; what remains in it is what we ran. *)
    remaining := !remaining - w.e_items;
    Api.overhead costs.atomic_rmw
  in
  let pop wid =
    let w = ws.(wid) in
    if Deque.is_empty w.dq then false
    else begin
      let grain = Deque.pop_bottom w.dq in
      let items = Deque.pop_bottom w.dq in
      Api.overhead 20;
      execute w ~items ~grain;
      true
    end
  in
  let steal thief victim =
    let dq = ws.(victim).dq in
    if Deque.is_empty dq then false
    else begin
      let items = Deque.steal_top dq in
      let grain = Deque.steal_top dq in
      Iw_obs.Counter.incr counters Iw_obs.Counter.Steals;
      if tr.Iw_obs.Trace.enabled then
        Iw_obs.Trace.instant tr ~name:"steal" ~cat:"heartbeat" ~cpu:thief
          ~ts:(Sched.now k) ();
      execute ws.(thief) ~items ~grain;
      true
    end
  in
  (* Mid-range with at least [div] items left: split off the upper
     1/div as a stealable task and shrink both the execution slot and
     the cycles the scheduler still owes the thread.  The preempted
     thread must be this CPU's worker: the supervisor shares CPU 0. *)
  let promote cpu ~preempted =
    Iw_obs.Counter.incr counters Iw_obs.Counter.Heartbeats;
    let w = ws.(cpu) in
    if
      preempted >= 0 && w.busy
      && preempted / w.e_grain >= div
      && Sched.is_running k cpu c.threads.(cpu)
    then begin
      let items = preempted / w.e_grain / div in
      push_task w.dq ~items ~grain:w.e_grain;
      w.e_items <- w.e_items - items;
      Iw_obs.Counter.incr counters Iw_obs.Counter.Promotions;
      if tr.Iw_obs.Trace.enabled then
        Iw_obs.Trace.instant tr ~name:"promote" ~cat:"heartbeat" ~cpu
          ~ts:(Sched.now k) ();
      Sched.stash_preempted k cpu (preempted - (items * w.e_grain));
      promotion_check_cost + promotion_cost
    end
    else promotion_check_cost
  in
  { left = (fun () -> !remaining); pop; steal; promote }

let run ?(promote_div = 2) plat (config : config) bench =
  if promote_div < 2 then invalid_arg "Tpal.run: promote_div must be >= 2";
  let serial = total_work bench in
  let c =
    run_core ~entry:"Tpal.run" ~prefix:"tpal" ~name:bench.bench_name
      ~horizon:(200 * serial) ~driver:config.driver plat
      ~workers:config.workers ~heartbeat_us:config.heartbeat_us
      ~seed:config.seed
      (range_shape ~div:promote_div bench)
  in
  let k = c.k in
  let count = Iw_obs.Counter.get (Sched.counters k) in
  let deliveries = count Iw_obs.Counter.Heartbeats in
  let seconds =
    float_of_int c.finish /. ((Sched.platform k).Platform.ghz *. 1e9)
  in
  {
    bench = bench.bench_name;
    os = (Sched.personality k).Os.os_name;
    workers = config.workers;
    heartbeat_us = config.heartbeat_us;
    elapsed_cycles = c.finish;
    work_cycles = Sched.total_work_cycles k;
    overhead_pct = overhead_pct k;
    promotions = count Iw_obs.Counter.Promotions;
    steals = count Iw_obs.Counter.Steals;
    deliveries;
    target_rate_hz = 1e6 /. config.heartbeat_us;
    achieved_rate_hz =
      float_of_int deliveries /. float_of_int config.workers /. seconds;
    rate_cv = Stats.coefficient_of_variation c.gaps;
    speedup_vs_serial = float_of_int serial /. float_of_int c.finish;
  }

(* ------------------------------------------------------------------ *)
(* Trees: every fork starts latent, run depth-first in line; a beat
   moves one latent frame to the worker's stealable deque. *)

module Tree = struct
  type node = { work : int; children : (unit -> node) list }

  type bench = { tree_name : string; root : unit -> node }

  let leaf_work = 400
  let node_work = 90

  let fib n =
    let rec gen n () =
      if n < 2 then { work = leaf_work; children = [] }
      else { work = node_work; children = [ gen (n - 1); gen (n - 2) ] }
    in
    { tree_name = Printf.sprintf "fib-%d" n; root = gen n }

  let rec fold_tree f acc node =
    let acc = f acc node in
    List.fold_left (fun acc gen -> fold_tree f acc (gen ())) acc node.children

  let total_nodes b = fold_tree (fun acc _ -> acc + 1) 0 (b.root ())
  let total_work b = fold_tree (fun acc n -> acc + n.work) 0 (b.root ())

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

  type frame = unit -> node

  type tworker = {
    latent : frame Deque.t;  (* bottom = newest (depth-first next) *)
    public : frame Deque.t;  (* stealable promoted tasks *)
  }

  (* What an empty deque slot holds; never run. *)
  let no_frame () = invalid_arg "Tpal.Tree: empty frame slot"

  (* The tree's counts live here, not in typed counters. *)
  type tally = {
    mutable outstanding : int;  (* frames not yet fully executed *)
    mutable nodes : int;
    mutable promotions : int;
    mutable steals : int;
  }

  let shape policy bench tl c =
    let k = c.k in
    let costs = (Sched.platform k).Platform.costs in
    let ws =
      Array.init c.nworkers (fun _ ->
          { latent = Deque.create no_frame; public = Deque.create no_frame })
    in
    Deque.push_bottom ws.(0).latent bench.root;
    let run_frame w f =
      let n = f () in
      tl.nodes <- tl.nodes + 1;
      (* The children become latent parallelism; execution proceeds
         depth-first unless a heartbeat promotes one. *)
      List.iter (fun gen -> Deque.push_bottom w.latent gen) (List.rev n.children);
      tl.outstanding <- tl.outstanding + List.length n.children - 1;
      Coro.consume n.work;
      Api.overhead costs.atomic_rmw
    in
    let pop wid =
      let w = ws.(wid) in
      if not (Deque.is_empty w.latent) then begin
        run_frame w (Deque.pop_bottom w.latent);
        true
      end
      else if not (Deque.is_empty w.public) then begin
        let f = Deque.pop_bottom w.public in
        Api.overhead 20;
        run_frame w f;
        true
      end
      else false
    in
    let steal thief victim =
      let public = ws.(victim).public in
      if Deque.is_empty public then false
      else begin
        let f = Deque.steal_top public in
        tl.steals <- tl.steals + 1;
        run_frame ws.(thief) f;
        true
      end
    in
    (* Latent frames live outside any in-flight consume, so unlike a
       range split no owed-cycle surgery is needed. *)
    let promote cpu ~preempted:_ =
      let w = ws.(cpu) in
      if Deque.is_empty w.latent then promotion_check_cost
      else begin
        Deque.push_bottom w.public
          (match policy with
          | Promote_oldest -> Deque.steal_top w.latent
          | Promote_newest -> Deque.pop_bottom w.latent);
        tl.promotions <- tl.promotions + 1;
        promotion_check_cost + promotion_cost
      end
    in
    { left = (fun () -> tl.outstanding); pop; steal; promote }

  let run plat (config : config) bench =
    let serial = total_work bench in
    let tl = { outstanding = 1; nodes = 0; promotions = 0; steals = 0 } in
    let c =
      run_core ~entry:"Tpal.Tree.run" ~prefix:"tpal-tree" ~name:bench.tree_name
        ~horizon:(400 * serial) ~driver:Nk_ipi plat ~workers:config.workers
        ~heartbeat_us:config.heartbeat_us ~seed:config.seed
        (shape config.policy bench tl)
    in
    {
      bench = bench.tree_name;
      policy = config.policy;
      workers = config.workers;
      elapsed_cycles = c.finish;
      nodes_run = tl.nodes;
      promotions = tl.promotions;
      steals = tl.steals;
      overhead_pct = overhead_pct c.k;
      speedup_vs_serial = float_of_int serial /. float_of_int (max 1 c.finish);
    }
end
