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

type thread = {
  tid : int;
  tname : string;
  bound : int;
  fp : bool;
  rt : bool;
  mutable state : tstate;
  mutable pending : pending;
  joiners : thread Queue.t;
  (* Intrusive link for run queues and semaphore wait queues: a thread
     sits on at most one of those at a time, so one field suffices and
     enqueue/dequeue never allocate.  [nil_thread] terminates lists. *)
  mutable wq_next : thread;
  (* Preallocated continuations for the per-request hot path: a thread
     is always dispatched and resumed on its bound CPU, so these can
     be built once at spawn instead of once per grant. *)
  mutable resume_cb : unit -> unit;
  mutable owe_cb : unit -> unit;
  mutable wake_cb : unit -> unit;
}

(* What a thread will do next time a CPU runs it: begin its body, be
   owed [rem] cycles before its coroutine continuation resumes, or —
   for flat threads — be owed [f_rem] cycles before its preallocated
   step function advances its state machine. *)
and pending =
  | Start of (unit -> unit)
  | Owe of owed
  | Flat of flat
  | Nothing

and owed = { mutable rem : int; okind : Cpu.kind; thunk : unit -> Coro.status }

(* A flat thread: the closureiters-style compilation of a coroutine
   into an explicit state struct.  The thread never performs effects;
   [f_step] reads its own state, calls the [flat_*] kernel entry
   points, and returns.  Everything here is allocated once at spawn,
   so steady-state scheduling of a flat thread allocates nothing. *)
and flat = {
  f_th : thread;
  mutable f_rem : int;
  mutable f_kind : Cpu.kind;
  mutable f_step : unit -> unit;
  mutable f_done : unit -> unit;
}

let nil_joiners : thread Queue.t = Queue.create ()

let rec nil_thread =
  {
    tid = -1;
    tname = "<nil>";
    bound = 0;
    fp = false;
    rt = false;
    state = Dead;
    pending = Nothing;
    joiners = nil_joiners;
    wq_next = nil_thread;
    resume_cb = nop;
    owe_cb = nop;
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
type cond = { cwaiters : (thread * mutex) Queue.t }
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
  | R_self : thread Coro.Request.t
  | R_cpu : int Coro.Request.t
  | R_sleep : int -> unit Coro.Request.t
  | R_lock : mutex -> unit Coro.Request.t
  | R_unlock : mutex -> unit Coro.Request.t
  | R_cond_wait : cond * mutex -> unit Coro.Request.t
  | R_cond_signal : cond -> unit Coro.Request.t
  | R_cond_broadcast : cond -> unit Coro.Request.t
  | R_sem_wait : semaphore -> unit Coro.Request.t
  | R_sem_post : semaphore -> unit Coro.Request.t
  | R_rand : int -> int Coro.Request.t
  | R_overhead : int -> unit Coro.Request.t
  | R_kernel : t Coro.Request.t

let mutex () = { owner = None; mwaiters = Queue.create () }
let cond () = { cwaiters = Queue.create () }

let semaphore ~init =
  if init < 0 then invalid_arg "Sched.semaphore: negative count";
  { count = init; swaiters = tq_create () }

let sim t = t.s
let platform t = t.plat
let personality t = t.p
let cpu t i = t.cpus.(i)
let lapic t i = t.lapics.(i)
let cpu_count t = Array.length t.cpus
let rng t = t.krng
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

and resume_thread t cid th =
  match th.pending with
  | Start f ->
      th.pending <- Nothing;
      step t cid th (Coro.start f)
  | Owe o when o.rem = 0 ->
      th.pending <- Nothing;
      step t cid th (o.thunk ())
  | Owe o ->
      (* Leave [pending] as Owe so a preemption can rewrite o.rem. *)
      Cpu.grant t.cpus.(cid) ~cycles:o.rem ~kind:o.okind
        ~uninterruptible:false ~on_complete:th.owe_cb
  | Flat f ->
      if f.f_rem = 0 then f.f_step ()
      else
        (* Leave [f_rem] so a preemption can rewrite it. *)
        Cpu.grant t.cpus.(cid) ~cycles:f.f_rem ~kind:f.f_kind
          ~uninterruptible:false ~on_complete:f.f_done
  | Nothing -> assert false

and step t cid th (status : Coro.status) =
  match status with
  | Coro.Done -> finish t cid th
  | Coro.Failed e -> raise e
  | Coro.Paused (Coro.Consumed (n, k)) ->
      th.pending <- Owe { rem = n; okind = Work; thunk = k };
      resume_thread t cid th
  | Coro.Paused (Coro.Yielded k) ->
      th.pending <- Owe { rem = 0; okind = Work; thunk = k };
      if queue_nonempty t cid then begin
        enqueue t th;
        t.current.(cid) <- nil_thread;
        dispatch t cid
      end
      else begin
        (* Nothing else to run: keep going, paying the re-check cost so
           a yield spin-loop still advances virtual time. *)
        th.state <- Running;
        th.pending <-
          Owe { rem = max 1 t.p.pick; okind = Overhead; thunk = k };
        resume_thread t cid th
      end
  | Coro.Paused (Coro.Requested (req, k)) -> handle_request t cid th req k

(* Continue [th] on [cid] after paying [cost] cycles of overhead and
   delivering [v] to the coroutine. *)
and reply : 'v. t -> int -> thread -> int -> 'v -> ('v -> Coro.status) -> unit
    =
 fun t cid th cost v k ->
  if cost = 0 then step t cid th (k v)
  else begin
    th.pending <- Owe { rem = cost; okind = Overhead; thunk = (fun () -> k v) };
    resume_thread t cid th
  end

(* Park [th] (currently on [cid]); its continuation is already stored
   in [th.pending].  The CPU moves on. *)
and block_current t cid th =
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

and finish t cid th =
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

and create_thread t spec body =
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
      pending = Start body;
      joiners = Queue.create ();
      wq_next = nil_thread;
      resume_cb = nop;
      owe_cb = nop;
      wake_cb = nop;
    }
  in
  th.resume_cb <- (fun () -> resume_thread t th.bound th);
  th.owe_cb <-
    (fun () ->
      match th.pending with
      | Owe o ->
          th.pending <- Nothing;
          step t th.bound th (o.thunk ())
      | Start _ | Flat _ | Nothing -> assert false);
  th.wake_cb <- (fun () -> make_runnable t th);
  t.next_tid <- t.next_tid + 1;
  t.live <- t.live + 1;
  Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Spawns;
  th

and handle_request : type a.
    t -> int -> thread -> a Coro.Request.t -> (a -> Coro.status) -> unit =
 fun t cid th req k ->
  match req with
  | R_spawn (spec, body) ->
      let child = create_thread t spec body in
      make_runnable t child;
      reply t cid th t.p.spawn child k
  | R_join target ->
      if target.tid = th.tid then invalid_arg "Sched: join on self";
      if target.state = Dead then reply t cid th t.p.uncontended_sync () k
      else begin
        th.pending <- Owe { rem = 0; okind = Overhead; thunk = (fun () -> k ()) };
        Queue.push th target.joiners;
        block_current t cid th
      end
  | R_now -> step t cid th (k (Sim.now t.s))
  | R_self -> step t cid th (k th)
  | R_cpu -> step t cid th (k cid)
  | R_kernel -> step t cid th (k t)
  | R_rand bound -> step t cid th (k (Rng.int t.krng bound))
  | R_overhead n -> reply t cid th n () k
  | R_sleep dt ->
      th.pending <- Owe { rem = 0; okind = Overhead; thunk = (fun () -> k ()) };
      th.state <- Blocked;
      t.current.(cid) <- nil_thread;
      Sim.schedule_after_unit t.s dt th.wake_cb;
      Cpu.grant t.cpus.(cid) ~cycles:t.p.sleep_arm ~kind:Overhead
        ~uninterruptible:true ~on_complete:t.dispatch_cbs.(cid)
  | R_lock m -> (
      match m.owner with
      | None ->
          m.owner <- Some th;
          reply t cid th t.p.uncontended_sync () k
      | Some _ ->
          Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Lock_contended;
          th.pending <-
            Owe { rem = 0; okind = Overhead; thunk = (fun () -> k ()) };
          Queue.push th m.mwaiters;
          block_current t cid th)
  | R_unlock m -> (
      (match m.owner with
      | Some o when o.tid = th.tid -> ()
      | _ -> invalid_arg "Sched: unlock by non-owner");
      match Queue.take_opt m.mwaiters with
      | None ->
          m.owner <- None;
          reply t cid th t.p.uncontended_sync () k
      | Some w ->
          m.owner <- Some w;
          make_runnable t w;
          reply t cid th t.p.wake () k)
  | R_cond_wait (c, m) ->
      (match m.owner with
      | Some o when o.tid = th.tid -> ()
      | _ -> invalid_arg "Sched: cond_wait without holding the mutex");
      th.pending <- Owe { rem = 0; okind = Overhead; thunk = (fun () -> k ()) };
      Queue.push (th, m) c.cwaiters;
      (* Release the mutex, handing it over if contended. *)
      (match Queue.take_opt m.mwaiters with
      | None -> m.owner <- None
      | Some w ->
          m.owner <- Some w;
          make_runnable t w);
      block_current t cid th
  | R_cond_signal c -> (
      match Queue.take_opt c.cwaiters with
      | None -> reply t cid th t.p.uncontended_sync () k
      | Some (w, m) ->
          wake_into_mutex t w m;
          reply t cid th t.p.wake () k)
  | R_cond_broadcast c ->
      let n = Queue.length c.cwaiters in
      Queue.iter (fun (w, m) -> wake_into_mutex t w m) c.cwaiters;
      Queue.clear c.cwaiters;
      reply t cid th (t.p.uncontended_sync + (n * t.p.wake)) () k
  | R_sem_wait sem ->
      if sem.count > 0 then begin
        sem.count <- sem.count - 1;
        reply t cid th t.p.uncontended_sync () k
      end
      else begin
        th.pending <- Owe { rem = 0; okind = Overhead; thunk = (fun () -> k ()) };
        tq_push sem.swaiters th;
        block_current t cid th
      end
  | R_sem_post sem ->
      let w = tq_pop sem.swaiters in
      if w == nil_thread then begin
        sem.count <- sem.count + 1;
        reply t cid th t.p.uncontended_sync () k
      end
      else begin
        make_runnable t w;
        reply t cid th t.p.wake () k
      end
  | _ ->
      invalid_arg
        (Printf.sprintf "Sched: unknown request from thread %d (%s)" th.tid
           th.tname)

(* A cond-waiter must re-acquire the mutex before it can run. *)
and wake_into_mutex t w m =
  match m.owner with
  | None ->
      m.owner <- Some w;
      make_runnable t w
  | Some _ -> Queue.push w m.mwaiters

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

(* ------------------------------------------------------------------ *)
(* Flat threads                                                        *)

(* Kernel entry points for flat threads.  Each mirrors — cost for
   cost, event for event — the corresponding coroutine request path in
   [handle_request], so replacing a coroutine thread with a flat one
   is invisible to the simulation (byte-identical schedules, counters
   and latency tables).  All of them must be called from inside the
   thread's own [f_step], i.e. while it is Running on its bound CPU,
   and none of them allocate. *)

let set_flat_step f step = f.f_step <- step

let spawn_flat t ?(spec = default_spec) () =
  let th = create_thread t spec nop in
  let f =
    { f_th = th; f_rem = 0; f_kind = Cpu.Overhead; f_step = nop; f_done = nop }
  in
  f.f_done <-
    (fun () ->
      f.f_rem <- 0;
      f.f_step ());
  th.pending <- Flat f;
  make_runnable t th;
  f

(* Continue the state machine after [cost] cycles of [kind] — the flat
   analogue of [reply] / a Consumed pause.  [cost = 0] re-enters
   [f_step] immediately, exactly as a zero-cost reply steps the
   coroutine inline. *)
let flat_continue t f ~cost ~kind =
  f.f_rem <- cost;
  f.f_kind <- kind;
  resume_thread t f.f_th.bound f.f_th

(* Api.work: a Consumed pause of [n] work cycles ([n <= 0]: nothing). *)
let flat_work t f n = flat_continue t f ~cost:(max 0 n) ~kind:Cpu.Work

(* Api.overhead: R_overhead's reply ([n <= 0]: no request at all). *)
let flat_overhead t f n = flat_continue t f ~cost:(max 0 n) ~kind:Cpu.Overhead

(* R_sleep: park, arm the wake event, pay sleep_arm, move on. *)
let flat_sleep t f dt =
  let th = f.f_th in
  let cid = th.bound in
  f.f_rem <- 0;
  th.state <- Blocked;
  t.current.(cid) <- nil_thread;
  Sim.schedule_after_unit t.s dt th.wake_cb;
  Cpu.grant t.cpus.(cid) ~cycles:t.p.sleep_arm ~kind:Cpu.Overhead
    ~uninterruptible:true ~on_complete:t.dispatch_cbs.(cid)

(* R_sem_wait. *)
let flat_sem_wait t f sem =
  let th = f.f_th in
  if sem.count > 0 then begin
    sem.count <- sem.count - 1;
    flat_continue t f ~cost:t.p.uncontended_sync ~kind:Cpu.Overhead
  end
  else begin
    f.f_rem <- 0;
    tq_push sem.swaiters th;
    block_current t th.bound th
  end

(* The fast half of R_sem_wait on its own: consume an available count
   and pay the uncontended-sync cost, without ever blocking.  The
   caller must have checked [sem_value sem > 0]. *)
let flat_sem_take t f sem =
  assert (sem.count > 0);
  sem.count <- sem.count - 1;
  flat_continue t f ~cost:t.p.uncontended_sync ~kind:Cpu.Overhead

(* R_sem_post. *)
let flat_sem_post t f sem =
  let w = tq_pop sem.swaiters in
  if w == nil_thread then begin
    sem.count <- sem.count + 1;
    flat_continue t f ~cost:t.p.uncontended_sync ~kind:Cpu.Overhead
  end
  else begin
    make_runnable t w;
    flat_continue t f ~cost:t.p.wake ~kind:Cpu.Overhead
  end

(* Semaphore post from outside any thread (host context): no cost to
   charge anywhere, just the state transition. *)
let sem_value sem = sem.count

(* Thread body completed: the flat analogue of [step .. Coro.Done]. *)
let flat_exit t f = finish t f.f_th.bound f.f_th

(* ------------------------------------------------------------------ *)
(* Interrupt-context services                                          *)

(* Semaphore post from outside any thread (a device RX event, the
   fleet's network delivery path): no requester to charge, so the
   state transition is free — the woken waiter still pays its own
   wake latency through [make_runnable]. *)
let sem_signal t sem =
  let w = tq_pop sem.swaiters in
  if w == nil_thread then sem.count <- sem.count + 1
  else make_runnable t w

let current_thread t cid =
  let th = t.current.(cid) in
  if th == nil_thread then None else Some th

let stash_preempted t cid remaining =
  let th = t.current.(cid) in
  if th != nil_thread then
    match th.pending with
    | Owe o -> o.rem <- remaining
    | Flat f -> f.f_rem <- remaining
    | Start _ | Nothing ->
        (* Preempted before the first consume: nothing owed. *)
        ()

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
  else resume_thread t cid th

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

let spawn t ?(spec = default_spec) body =
  let th = create_thread t spec body in
  make_runnable t th;
  th

let run_until t horizon =
  start_ticks t;
  if t.live = 0 then stop_ticks t;
  Sim.run_until t.s horizon

let run t = run_until t max_int
