open Iw_engine
open Iw_hw

type tstate = New | Runnable | Running | Blocked | Dead

type spawn_spec = {
  sp_name : string;
  sp_cpu : int option;
  sp_fp : bool;
  sp_rt : bool;
}

let default_spec = { sp_name = "thread"; sp_cpu = None; sp_fp = false; sp_rt = false }

let nop () = ()

(* The continuation of a thread with no coroutine to resume. *)
let finished () = Coro.Done

type thread = {
  tid : int;
  tname : string;
  bound : int;
  fp : bool;
  rt : bool;
  mutable state : tstate;
  (* What the thread does next time its CPU runs it: be granted [rem]
     cycles charged as [kind], then call [step].  [rem] is 0 whenever
     [step] runs, and stays set during the grant so a preemption can
     rewrite it.  A coroutine thread's [step] resumes [next], its
     continuation, up to the coroutine's next pause. *)
  mutable rem : int;
  mutable kind : Cpu.kind;
  mutable step : unit -> unit;
  mutable next : unit -> Coro.status;
  joiners : thread Queue.t;
  (* Intrusive link for run queues and semaphore wait queues: a thread
     sits on at most one of those at a time, so one field suffices and
     enqueue/dequeue never allocate.  [nil_thread] terminates lists. *)
  mutable wq_next : thread;
  (* Preallocated continuations for the per-request hot path: a thread
     is always dispatched and resumed on its bound CPU, so these can
     be built once at spawn instead of once per grant. *)
  mutable resume_cb : unit -> unit;
  mutable paid_cb : unit -> unit;
  mutable wake_cb : unit -> unit;
}

type flat = thread

let nil_joiners : thread Queue.t = Queue.create ()

let rec nil_thread =
  {
    tid = -1;
    tname = "<nil>";
    bound = 0;
    fp = false;
    rt = false;
    state = Dead;
    rem = 0;
    kind = Cpu.Overhead;
    step = nop;
    next = finished;
    joiners = nil_joiners;
    wq_next = nil_thread;
    resume_cb = nop;
    paid_cb = nop;
    wake_cb = nop;
  }

(* Allocation-free FIFO of threads via the intrusive [wq_next] link. *)
type tq = { mutable qh : thread; mutable qt : thread; mutable qn : int }

let tq_create () = { qh = nil_thread; qt = nil_thread; qn = 0 }

let tq_push q th =
  th.wq_next <- nil_thread;
  if q.qn = 0 then begin
    q.qh <- th;
    q.qt <- th
  end
  else begin
    q.qt.wq_next <- th;
    q.qt <- th
  end;
  q.qn <- q.qn + 1

(* Returns [nil_thread] when empty. *)
let tq_pop q =
  if q.qn = 0 then nil_thread
  else begin
    let th = q.qh in
    q.qh <- th.wq_next;
    q.qn <- q.qn - 1;
    if q.qn = 0 then q.qt <- nil_thread;
    th.wq_next <- nil_thread;
    th
  end

let tq_is_empty q = q.qn = 0

type mutex = { mutable owner : thread option; mwaiters : thread Queue.t }
type semaphore = { mutable count : int; swaiters : tq }

type t = {
  s : Sim.t;
  plat : Platform.t;
  p : Os.t;
  cpus : Cpu.t array;
  lapics : Lapic.t array;
  rt_q : tq array;
  norm_q : tq array;
  current : thread array; (* nil_thread = idle slot *)
  kick_pending : bool array;
  quantum : int;
  krng : Rng.t;
  obs : Iw_obs.Obs.t;
  mutable kick_cbs : (unit -> unit) array;
  mutable dispatch_cbs : (unit -> unit) array;
  mutable live : int;
  mutable next_tid : int;
  mutable ticking : bool;
}

type _ Coro.Request.t +=
  | R_spawn : spawn_spec * (unit -> unit) -> thread Coro.Request.t
  | R_join : thread -> unit Coro.Request.t
  | R_now : int Coro.Request.t
  | R_cpu : int Coro.Request.t
  | R_sleep : int -> unit Coro.Request.t
  | R_lock : mutex -> unit Coro.Request.t
  | R_unlock : mutex -> unit Coro.Request.t
  | R_sem_wait : semaphore -> unit Coro.Request.t
  | R_sem_post : semaphore -> unit Coro.Request.t
  | R_rand : int -> int Coro.Request.t
  | R_overhead : int -> unit Coro.Request.t
  | R_kernel : t Coro.Request.t

let mutex () = { owner = None; mwaiters = Queue.create () }

let semaphore ~init =
  if init < 0 then invalid_arg "Sched.semaphore: negative count";
  { count = init; swaiters = tq_create () }

let sim t = t.s
let platform t = t.plat
let personality t = t.p
let cpu t i = t.cpus.(i)
let lapic t i = t.lapics.(i)
let cpu_count t = Array.length t.cpus
let counters t = t.obs.Iw_obs.Obs.counters
let obs t = t.obs
let now t = Sim.now t.s

let total_work_cycles t =
  Array.fold_left (fun acc c -> acc + Cpu.work_cycles c) 0 t.cpus

let total_overhead_cycles t =
  Array.fold_left
    (fun acc c -> acc + Cpu.overhead_cycles c + Cpu.irq_cycles c)
    0 t.cpus

let thread_id th = th.tid

(* A pause this kernel does not serve, from coroutine thread [th]. *)
let refuse th what =
  invalid_arg
    (Printf.sprintf "Sched: %s from thread %d (%s)" what th.tid th.tname)

(* ------------------------------------------------------------------ *)
(* Run queues and dispatch                                             *)

let queue_nonempty t cid =
  (not (tq_is_empty t.rt_q.(cid))) || not (tq_is_empty t.norm_q.(cid))

let enqueue t th =
  th.state <- Runnable;
  let q = if th.rt then t.rt_q.(th.bound) else t.norm_q.(th.bound) in
  tq_push q th

(* Returns [nil_thread] when both classes are empty. *)
let pop_queue t cid =
  let th = tq_pop t.rt_q.(cid) in
  if th != nil_thread then th else tq_pop t.norm_q.(cid)

let rec kick ?(delay = 0) t cid =
  if not t.kick_pending.(cid) then begin
    t.kick_pending.(cid) <- true;
    Sim.schedule_after_unit t.s delay t.kick_cbs.(cid)
  end

and maybe_dispatch t cid =
  if (not (Cpu.busy t.cpus.(cid))) && t.current.(cid) == nil_thread then
    dispatch t cid

and dispatch t cid =
  let th = pop_queue t cid in
  if th != nil_thread then begin
    assert (th.state = Runnable);
    th.state <- Running;
    t.current.(cid) <- th;
    Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Context_switches;
    let tr = t.obs.Iw_obs.Obs.trace in
    if tr.Iw_obs.Trace.enabled then
      Iw_obs.Trace.instant tr
        ~name:("switch:" ^ th.tname)
        ~cat:"sched" ~cpu:cid ~ts:(Sim.now t.s) ();
    let pick = if th.rt then t.p.pick_rt else t.p.pick in
    let switch =
      t.p.switch_int + (if th.fp then t.p.switch_fp_extra else 0)
    in
    (* Pick + switch run with interrupts off. *)
    Cpu.grant t.cpus.(cid) ~cycles:(pick + switch) ~kind:Overhead
      ~uninterruptible:true ~on_complete:th.resume_cb
  end

and resume_thread t th =
  if th.rem = 0 then th.step ()
  else
    Cpu.grant t.cpus.(th.bound) ~cycles:th.rem ~kind:th.kind
      ~uninterruptible:false ~on_complete:th.paid_cb

(* A coroutine thread's step, given where its coroutine paused. *)
and run_coroutine t th (status : Coro.status) =
  match status with
  | Coro.Done -> finish t th
  | Coro.Failed e -> raise e
  | Coro.Paused (Coro.Consumed (n, k)) ->
      th.next <- k;
      flat_continue t th ~cost:n ~kind:Cpu.Work
  | Coro.Paused (Coro.Requested (req, k)) -> handle_request t th req k
  | Coro.Paused (Coro.Yielded _) -> refuse th "Coro.yield"

(* Park [th] (running on its CPU); what it does when woken is already
   in its [step].  The CPU moves on. *)
and block_current t th =
  let cid = th.bound in
  th.state <- Blocked;
  t.current.(cid) <- nil_thread;
  if t.p.block = 0 then dispatch t cid
  else
    Cpu.grant t.cpus.(cid) ~cycles:t.p.block ~kind:Overhead
      ~uninterruptible:true ~on_complete:t.dispatch_cbs.(cid)

and make_runnable t th =
  match th.state with
  | Blocked | New ->
      enqueue t th;
      kick ~delay:t.p.wake_latency t th.bound
  | Runnable | Running | Dead -> ()

and finish t th =
  let cid = th.bound in
  th.state <- Dead;
  t.current.(cid) <- nil_thread;
  Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Thread_exits;
  let waiters = Queue.fold (fun acc j -> j :: acc) [] th.joiners in
  Queue.clear th.joiners;
  Cpu.grant t.cpus.(cid) ~cycles:t.p.exit ~kind:Overhead ~uninterruptible:true
    ~on_complete:(fun () ->
      List.iter (make_runnable t) (List.rev waiters);
      t.live <- t.live - 1;
      if t.live = 0 then stop_ticks t;
      dispatch t cid)

(* A runnable thread whose [step] does nothing yet. *)
and create_thread t spec =
  let cpu_of_spec () =
    match spec.sp_cpu with
    | Some c ->
        if c < 0 || c >= cpu_count t then
          invalid_arg (Printf.sprintf "Sched.spawn: bad cpu %d" c);
        c
    | None ->
        (* Least-loaded placement, ties to the lowest id. *)
        let best = ref 0 and best_load = ref max_int in
        for i = 0 to cpu_count t - 1 do
          let load =
            t.rt_q.(i).qn + t.norm_q.(i).qn
            + (if t.current.(i) != nil_thread then 1 else 0)
          in
          if load < !best_load then begin
            best := i;
            best_load := load
          end
        done;
        !best
  in
  let th =
    {
      tid = t.next_tid;
      tname = spec.sp_name;
      bound = cpu_of_spec ();
      fp = spec.sp_fp;
      rt = spec.sp_rt;
      state = New;
      rem = 0;
      kind = Cpu.Overhead;
      step = nop;
      next = finished;
      joiners = Queue.create ();
      wq_next = nil_thread;
      resume_cb = nop;
      paid_cb = nop;
      wake_cb = nop;
    }
  in
  th.resume_cb <- (fun () -> resume_thread t th);
  th.paid_cb <-
    (fun () ->
      th.rem <- 0;
      th.step ());
  th.wake_cb <- (fun () -> make_runnable t th);
  t.next_tid <- t.next_tid + 1;
  t.live <- t.live + 1;
  Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Spawns;
  make_runnable t th;
  th

and spawn_coroutine t spec body =
  let th = create_thread t spec in
  th.next <- (fun () -> Coro.start body);
  th.step <- (fun () -> run_coroutine t th (th.next ()));
  th

(* Serve a coroutine request through the flat entry points below.  A
   unit-valued request stores its continuation as [next] as it is. *)
and handle_request : type a.
    t -> thread -> a Coro.Request.t -> (a -> Coro.status) -> unit =
 fun t th req k ->
  match req with
  | R_spawn (spec, body) ->
      let child = spawn_coroutine t spec body in
      th.next <- (fun () -> k child);
      flat_continue t th ~cost:t.p.spawn ~kind:Cpu.Overhead
  | R_join target ->
      if target.tid = th.tid then invalid_arg "Sched: join on self";
      th.next <- k;
      if target.state = Dead then
        flat_continue t th ~cost:t.p.uncontended_sync ~kind:Cpu.Overhead
      else begin
        Queue.push th target.joiners;
        block_current t th
      end
  | R_now -> run_coroutine t th (k (Sim.now t.s))
  | R_cpu -> run_coroutine t th (k th.bound)
  | R_kernel -> run_coroutine t th (k t)
  | R_rand bound -> run_coroutine t th (k (Rng.int t.krng bound))
  | R_overhead n ->
      th.next <- k;
      flat_continue t th ~cost:n ~kind:Cpu.Overhead
  | R_sleep dt ->
      th.next <- k;
      flat_sleep t th dt
  | R_lock m -> (
      th.next <- k;
      match m.owner with
      | None ->
          m.owner <- Some th;
          flat_continue t th ~cost:t.p.uncontended_sync ~kind:Cpu.Overhead
      | Some _ ->
          Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Lock_contended;
          Queue.push th m.mwaiters;
          block_current t th)
  | R_unlock m -> (
      (match m.owner with
      | Some o when o.tid = th.tid -> ()
      | _ -> invalid_arg "Sched: unlock by non-owner");
      th.next <- k;
      match Queue.take_opt m.mwaiters with
      | None ->
          m.owner <- None;
          flat_continue t th ~cost:t.p.uncontended_sync ~kind:Cpu.Overhead
      | Some w ->
          m.owner <- Some w;
          make_runnable t w;
          flat_continue t th ~cost:t.p.wake ~kind:Cpu.Overhead)
  | R_sem_wait sem ->
      th.next <- k;
      flat_sem_wait t th sem
  | R_sem_post sem ->
      th.next <- k;
      flat_sem_post t th sem
  | _ -> refuse th "unknown request"

(* ------------------------------------------------------------------ *)
(* Thread entry points                                                 *)

(* What every thread calls from its [step], while Running on its bound
   CPU: a coroutine thread through [handle_request], a flat thread
   directly.  None of them allocate. *)

(* Continue after [cost] cycles of [kind]; [cost = 0] steps again at
   once. *)
and flat_continue t th ~cost ~kind =
  th.rem <- cost;
  th.kind <- kind;
  resume_thread t th

(* Park, arm the wake event, pay sleep_arm, move on. *)
and flat_sleep t th dt =
  let cid = th.bound in
  th.state <- Blocked;
  t.current.(cid) <- nil_thread;
  Sim.schedule_after_unit t.s dt th.wake_cb;
  Cpu.grant t.cpus.(cid) ~cycles:t.p.sleep_arm ~kind:Overhead
    ~uninterruptible:true ~on_complete:t.dispatch_cbs.(cid)

and flat_sem_wait t th sem =
  if sem.count > 0 then begin
    sem.count <- sem.count - 1;
    flat_continue t th ~cost:t.p.uncontended_sync ~kind:Cpu.Overhead
  end
  else begin
    tq_push sem.swaiters th;
    block_current t th
  end

and flat_sem_post t th sem =
  let cost = if post t sem then t.p.wake else t.p.uncontended_sync in
  flat_continue t th ~cost ~kind:Cpu.Overhead

(* Wake [sem]'s first waiter, or bank the count when none waits; true
   when a waiter woke.  The waiter pays its own wake latency through
   [make_runnable]. *)
and post t sem =
  let w = tq_pop sem.swaiters in
  if w == nil_thread then begin
    sem.count <- sem.count + 1;
    false
  end
  else begin
    make_runnable t w;
    true
  end

and stop_ticks t =
  if t.ticking then begin
    t.ticking <- false;
    Array.iter Lapic.stop t.lapics
  end

let boot ?obs ?(seed = 42) ?(quantum_us = 1000.0) ~personality plat =
  let obs = match obs with Some o -> o | None -> Iw_obs.Obs.inherit_trace () in
  let s = Sim.create ~seed () in
  let cpus = Array.init plat.Platform.cores (fun id -> Cpu.create ~obs s ~id) in
  let lapics = Array.map (fun c -> Lapic.create s plat c) cpus in
  let t =
    {
      s;
      plat;
      p = personality;
      cpus;
      lapics;
      rt_q = Array.init plat.Platform.cores (fun _ -> tq_create ());
      norm_q = Array.init plat.Platform.cores (fun _ -> tq_create ());
      current = Array.make plat.Platform.cores nil_thread;
      kick_pending = Array.make plat.Platform.cores false;
      quantum = Platform.cycles_of_us plat quantum_us;
      krng = Rng.split (Sim.rng s);
      obs;
      kick_cbs = [||];
      dispatch_cbs = [||];
      live = 0;
      next_tid = 0;
      ticking = false;
    }
  in
  t.kick_cbs <-
    Array.init plat.Platform.cores (fun cid () ->
        t.kick_pending.(cid) <- false;
        maybe_dispatch t cid);
  t.dispatch_cbs <-
    Array.init plat.Platform.cores (fun cid () -> dispatch t cid);
  t

let spawn t ?(spec = default_spec) body = spawn_coroutine t spec body

(* ------------------------------------------------------------------ *)
(* Flat threads                                                        *)

let spawn_flat t ?(spec = default_spec) () = create_thread t spec
let set_flat_step th step = th.step <- step
let flat_work t th n = flat_continue t th ~cost:(max 0 n) ~kind:Cpu.Work
let flat_overhead t th n = flat_continue t th ~cost:(max 0 n) ~kind:Cpu.Overhead

let flat_sem_take t th sem =
  assert (sem.count > 0);
  flat_sem_wait t th sem

let sem_value sem = sem.count
let flat_exit = finish

(* ------------------------------------------------------------------ *)
(* Interrupt-context services                                          *)

(* Semaphore post from outside any thread (a device RX event, the
   fleet's network delivery path): no requester to charge, so the
   state transition is free. *)
let sem_signal t sem = ignore (post t sem)

let current_thread t cid =
  let th = t.current.(cid) in
  if th == nil_thread then None else Some th

let stash_preempted t cid remaining =
  let th = t.current.(cid) in
  if th != nil_thread then th.rem <- remaining

let resched_or_resume t cid =
  let th = t.current.(cid) in
  if th == nil_thread then maybe_dispatch t cid
  else if queue_nonempty t cid then begin
    Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Preemptions;
    let tr = t.obs.Iw_obs.Obs.trace in
    if tr.Iw_obs.Trace.enabled then
      Iw_obs.Trace.instant tr ~name:"preempt" ~cat:"sched" ~cpu:cid
        ~ts:(Sim.now t.s) ();
    enqueue t th;
    t.current.(cid) <- nil_thread;
    dispatch t cid
  end
  else resume_thread t th

(* ------------------------------------------------------------------ *)
(* Ticks and the run loop                                              *)

let start_ticks t =
  if not t.ticking then begin
    t.ticking <- true;
    let ncpus = Array.length t.lapics in
    Array.iteri
      (fun cid l ->
        (* Stagger tick phases across CPUs, as real kernels do. *)
        let phase = max 1 ((cid + 1) * t.quantum / ncpus) in
        Lapic.periodic l ~phase ~period:t.quantum
          ~handler:(fun ~preempted ->
            Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters
              Iw_obs.Counter.Ticks;
            if preempted >= 0 then stash_preempted t cid preempted;
            t.p.tick_cost + t.p.tick_noise t.krng)
          ~after:(fun () -> resched_or_resume t cid)
          ())
      t.lapics
  end

let run_until t horizon =
  start_ticks t;
  if t.live = 0 then stop_ticks t;
  Sim.run_until t.s horizon

let run t = run_until t max_int
