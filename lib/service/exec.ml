(* The machine role of the service plane, shared by [Plane.run]
   (standalone box) and [Fleet.run] (N machines behind a balancer).
   See exec.mli for the contract; the worker state machines below are
   the closureiters-style flat compilation from PR 6, moved here
   verbatim so the standalone path stays byte-identical and
   allocation-free. *)

open Iw_kernel

type backend =
  | Fiber_exec
  | Virtine_exec of { vconfig : Iw_virtine.Wasp.config; pool : int }

let backend_name = function Fiber_exec -> "fiber" | Virtine_exec _ -> "virtine"

type mode =
  | Standalone of Sched.semaphore array
  | Fleet of { fm_tx_c : int; fm_respond : reply:int -> unit }

(* Max requests a worker drains per doorbell wake (Fifo only). *)
let batch_k = 8

(* [w_state] values: *)
let st_start = 0 (* first activation: wait on the doorbell *)

let st_pop = 1 (* own one doorbell count: pop and execute *)
let st_staged = 2 (* sem cost paid: settle the lease, execute *)
let st_vwork = 3 (* virtine overhead paid: run the body *)
let st_done = 4 (* body finished: account and complete *)
let st_replied = 5 (* reply posted: finish bookkeeping *)
let st_bcast = 6 (* stop: posting every doorbell in turn *)
let st_tx = 7 (* fleet: serialization paid, hand off the response *)
let st_unhang = 8 (* clocked hang served: clear the flag, resume *)

type worker = {
  w_id : int;
  w_fl : Sched.flat;
  mutable w_state : int;
  mutable w_req : int;  (* arena index under execution *)
  mutable w_start : int;  (* cycle execution started *)
  mutable w_resp : int;  (* fleet: reply handle awaiting tx *)
  w_scratch : int array;  (* leased arena indices (batched drain) *)
  mutable w_sc_n : int;
  mutable w_sc_i : int;
  mutable w_bc : int;  (* stop-broadcast cursor *)
  mutable w_hung : bool;  (* injected hang: not draining its queue *)
}

type t = {
  ex_k : Sched.t;
  ex_workers : int;
  ex_order : Squeue.order;
  ex_backend : backend;
  ex_work_us : float;
  ex_work_c : int;
  ex_mode : mode;
  ex_queues : Squeue.t array;
  ex_doorbells : Sched.semaphore array;
  ex_disp : Dispatch.t;
  ex_h_queue : Hist.t array;
  ex_h_service : Hist.t array;
  ex_h_total : Hist.t array;
  ex_arena : Request_arena.t;
  ex_wasp : Iw_virtine.Wasp.t option;
  ex_ctr : Iw_obs.Counter.set;  (* the kernel's: admitted, completed, steals *)
  mutable ex_busy : int;
  mutable ex_gen_done : bool;
  mutable ex_stopping : bool;
  mutable ex_on_stop : unit -> unit;
  (* Service-level chaos (ISSUE 9).  The plan is the one ambient at
     creation; [ex_hang_armed] caches the arming check so the
     unarmed hot path costs one immediate-bool test.  Machine-kernel
     code only touches the (mutable) plan stream when the hang kind
     is armed, which the fleet forces to single-domain execution. *)
  ex_plan : Iw_faults.Plan.t;
  ex_hang_armed : bool;
  ex_perm_ok : bool;  (* permanent hangs allowed (fleet only) *)
  mutable ex_slow_x1000 : int;  (* brownout work multiplier, 1000 = 1x *)
  ex_demand : Workload.demand;
  ex_demand_seed : int;
  ex_demand_scale : float;  (* fleet: 1/speed, matching work_us *)
  ex_h_corr : Hist.t;  (* coordinated-omission-corrected sojourn *)
  mutable ex_wd_stop : unit -> unit;
  ex_ws : worker array;
}

(* Batched drain (Fifo only): pop up to [batch_k - 1] extra requests
   now, leased so length probes still see them, and consume their
   doorbell counts one by one between executions — byte-identical to
   popping them one at a time.  Priority queues drain per-item: a
   high-priority arrival during execution must still overtake a
   queued low one. *)
let stage_extras t w =
  w.w_sc_n <- 0;
  w.w_sc_i <- 0;
  match t.ex_order with
  | Squeue.Priority -> ()
  | Squeue.Fifo ->
      let q = t.ex_queues.(w.w_id) and db = t.ex_doorbells.(w.w_id) in
      while
        w.w_sc_n < batch_k - 1
        && Sched.sem_value db > w.w_sc_n
        && (let v = Squeue.lease_pop q in
            v >= 0
            && begin
                 w.w_scratch.(w.w_sc_n) <- v;
                 w.w_sc_n <- w.w_sc_n + 1;
                 true
               end)
      do
        ()
      done

(* The cycles one request body costs this worker right now: the
   arena's per-request demand when one was drawn ([Dfixed] leaves the
   slot at -1), scaled by the brownout multiplier.  The default path
   (-1 demand, x1000 = 1000) reproduces the historical grant
   exactly. *)
let[@inline] work_grant t v =
  let d = Request_arena.demand t.ex_arena v in
  let base = if d >= 0 then d else t.ex_work_c in
  if t.ex_slow_x1000 = 1000 then base else base * t.ex_slow_x1000 / 1000

(* The stop protocol, shared by every initiator: mark generation done
   and, once every admitted request has completed, flip [stopping]
   exactly once, fire the on-stop hook and disarm the watchdog.  True
   hands the caller the doorbell broadcast that lets idle workers
   exit. *)
let end_generation t =
  t.ex_gen_done <- true;
  if
    Iw_obs.Counter.get t.ex_ctr Iw_obs.Counter.Service_completions
    = Iw_obs.Counter.get t.ex_ctr Iw_obs.Counter.Service_admitted
    && not t.ex_stopping
  then begin
    t.ex_stopping <- true;
    t.ex_on_stop ();
    t.ex_wd_stop ();
    true
  end
  else false

let rec w_activation t w =
  let k = t.ex_k in
  if w.w_state = st_start then begin
    w.w_state <- st_pop;
    Sched.flat_sem_wait k w.w_fl t.ex_doorbells.(w.w_id)
  end
  else if w.w_state = st_pop then begin
    (* Hang injection: drawn only with work waiting (an idle worker
       "hanging" is unobservable), before the pop so no request or
       lease is held while hung. *)
    if
      t.ex_hang_armed
      && (not w.w_hung)
      && (not (Squeue.is_empty t.ex_queues.(w.w_id)))
      && Iw_faults.Plan.fire t.ex_plan (Sched.obs k)
           ~kind:Iw_faults.Plan.Worker_hang ~cpu:w.w_id ~ts:(Sched.now k)
    then begin
      w.w_hung <- true;
      if t.ex_perm_ok && Iw_faults.Plan.draw_hang_permanent t.ex_plan then
        (* Permanent: the worker is gone; recovery is the watchdog's
           job.  Only allowed in fleet mode — a standalone plane's
           stop protocol needs every admitted request completed. *)
        Sched.flat_exit k w.w_fl
      else begin
        w.w_state <- st_unhang;
        Sched.flat_sleep k w.w_fl (Iw_faults.Plan.hang_cycles t.ex_plan)
      end
    end
    else begin
      let v = Squeue.pop_idx t.ex_queues.(w.w_id) in
      if v >= 0 then begin
        stage_extras t w;
        start_exec t w v
      end
      else if t.ex_stopping then Sched.flat_exit k w.w_fl
      else Sched.flat_sem_wait k w.w_fl t.ex_doorbells.(w.w_id)
    end
  end
  else if w.w_state = st_unhang then begin
    w.w_hung <- false;
    w.w_state <- st_pop;
    w_activation t w
  end
  else if w.w_state = st_staged then begin
    Squeue.settle t.ex_queues.(w.w_id);
    let v = w.w_scratch.(w.w_sc_i) in
    w.w_sc_i <- w.w_sc_i + 1;
    start_exec t w v
  end
  else if w.w_state = st_vwork then begin
    w.w_state <- st_done;
    Sched.flat_work k w.w_fl (work_grant t w.w_req)
  end
  else if w.w_state = st_done then finish_exec t w
  else if w.w_state = st_replied then after_reply t w
  else if w.w_state = st_tx then begin
    (match t.ex_mode with
    | Fleet f -> f.fm_respond ~reply:w.w_resp
    | Standalone _ -> assert false);
    w.w_resp <- -1;
    next_item t w
  end
  else if w.w_state = st_bcast then begin
    if w.w_bc < t.ex_workers then begin
      let i = w.w_bc in
      w.w_bc <- i + 1;
      Sched.flat_sem_post t.ex_k w.w_fl t.ex_doorbells.(i)
    end
    else next_item t w
  end
  else assert false

(* Begin executing arena slot [v]: record queue wait, then route the
   body through the backend — fiber = one work grant; virtine =
   overhead (spawn latency above the body) then work. *)
and start_exec t w v =
  let k = t.ex_k in
  let start = Sched.now k in
  w.w_req <- v;
  w.w_start <- start;
  Hist.record t.ex_h_queue.(w.w_id) (start - Request_arena.arrival t.ex_arena v);
  match t.ex_backend with
  | Fiber_exec ->
      w.w_state <- st_done;
      Sched.flat_work k w.w_fl (work_grant t v)
  | Virtine_exec _ ->
      let w_ = match t.ex_wasp with Some w_ -> w_ | None -> assert false in
      let plat = Sched.platform k in
      let now_us = Iw_hw.Platform.us_of_cycles plat start in
      let lat_us = Iw_virtine.Wasp.call_at w_ ~now_us ~work_us:t.ex_work_us in
      w.w_state <- st_vwork;
      Sched.flat_overhead k w.w_fl
        (max 0 (Iw_hw.Platform.cycles_of_us plat lat_us - t.ex_work_c))

and finish_exec t w =
  let k = t.ex_k in
  let fin = Sched.now k in
  t.ex_busy <- t.ex_busy + (fin - w.w_start);
  Hist.record t.ex_h_service.(w.w_id) (fin - w.w_start);
  Hist.record t.ex_h_total.(w.w_id) (fin - Request_arena.arrival t.ex_arena w.w_req);
  Iw_obs.Counter.incr t.ex_ctr Iw_obs.Counter.Service_completions;
  let tr = (Sched.obs k).Iw_obs.Obs.trace in
  if Iw_obs.Trace.enabled tr then
    Iw_obs.Trace.span tr ~name:"service:exec" ~cat:"service" ~cpu:w.w_id
      ~ts:w.w_start ~dur:(fin - w.w_start) ();
  let it = Request_arena.intended t.ex_arena w.w_req in
  if it >= 0 then Hist.record t.ex_h_corr (fin - it);
  let r = Request_arena.reply t.ex_arena w.w_req in
  Request_arena.free t.ex_arena w.w_req;
  w.w_req <- -1;
  match t.ex_mode with
  | Standalone replies ->
      if r >= 0 then begin
        w.w_state <- st_replied;
        Sched.flat_sem_post k w.w_fl replies.(r)
      end
      else after_reply t w
  | Fleet f ->
      (* Cross-machine request tracing: [r] is the front tier's
         request id, so this step stitches the worker's span into the
         request's fleet-wide flow. *)
      if r >= 0 && Iw_obs.Trace.flows_enabled tr then
        Iw_obs.Trace.flow tr ~name:"req" ~phase:Iw_obs.Trace.flow_step ~id:r
          ~cpu:w.w_id ~ts:fin ();
      w.w_resp <- r;
      w.w_state <- st_tx;
      Sched.flat_overhead k w.w_fl f.fm_tx_c

and after_reply t w =
  if t.ex_gen_done && end_generation t then begin
    w.w_bc <- 0;
    w.w_state <- st_bcast;
    w_activation t w
  end
  else next_item t w

and next_item t w =
  if w.w_sc_i < w.w_sc_n then begin
    (* A staged request: its doorbell count is still outstanding, so
       consume it now at the uncontended cost — when the coroutine
       worker looped back to sem_wait here, the count was >= 1. *)
    w.w_state <- st_staged;
    Sched.flat_sem_take t.ex_k w.w_fl t.ex_doorbells.(w.w_id)
  end
  else begin
    w.w_sc_n <- 0;
    w.w_sc_i <- 0;
    w.w_state <- st_pop;
    Sched.flat_sem_wait t.ex_k w.w_fl t.ex_doorbells.(w.w_id)
  end

(* Recovery one layer up from a hung worker: the watchdog scans from
   sim-timer context, and every queued request it finds behind a hung
   worker is re-pushed onto the shortest live peer's queue (peer
   stealing, counted).  Re-pushing appends at the tail, so a steal
   trades strict FIFO order for liveness — exactly the price the real
   recovery pays. *)
let watchdog_scan t =
  let k = t.ex_k in
  let ctr = t.ex_ctr in
  let now = Sched.now k in
  for i = 0 to t.ex_workers - 1 do
    let w = t.ex_ws.(i) in
    if w.w_hung && not (Squeue.is_empty t.ex_queues.(i)) then begin
      Iw_obs.Counter.incr ctr Iw_obs.Counter.Watchdog_fire;
      let tr = (Sched.obs k).Iw_obs.Obs.trace in
      if Iw_obs.Trace.enabled tr then
        Iw_obs.Trace.instant tr ~name:"recover:steal" ~cat:"service" ~cpu:i
          ~ts:now ();
      let go = ref true in
      while !go do
        let v = Squeue.pop_idx t.ex_queues.(i) in
        if v < 0 then go := false
        else begin
          let best = ref (-1) and bestlen = ref max_int in
          for j = 0 to t.ex_workers - 1 do
            if j <> i && not t.ex_ws.(j).w_hung then begin
              let l = Squeue.length t.ex_queues.(j) in
              if l < !bestlen then begin
                bestlen := l;
                best := j
              end
            end
          done;
          let hi = Request_arena.is_hi t.ex_arena v in
          if !best >= 0 && Squeue.try_push t.ex_queues.(!best) ~hi v then begin
            Iw_obs.Counter.incr ctr Iw_obs.Counter.Peer_steal;
            Sched.sem_signal k t.ex_doorbells.(!best)
          end
          else begin
            (* No live peer with room: put it back, retry next tick. *)
            ignore (Squeue.try_push t.ex_queues.(i) ~hi v);
            go := false
          end
        end
      done
    end
  done

let create ~k ?(prefix = "serve") ?(watchdog = true)
    ?(demand = Workload.Dfixed) ?(demand_seed = 0) ?(demand_scale = 1.0)
    ~workers ~order ~queue_cap ~backend ~work_us ~policy ~dispatch_rng
    ~wasp_seed ~mode () =
  Workload.validate_demand demand;
  let plat = Sched.platform k in
  let work_c = Iw_hw.Platform.cycles_of_us plat work_us in
  let queues =
    Array.init workers (fun _ -> Squeue.create ~order ~cap:queue_cap)
  in
  let doorbells = Array.init workers (fun _ -> Sched.semaphore ~init:0) in
  let disp = Dispatch.create policy ~rng:dispatch_rng in
  let h_queue = Array.init workers (fun _ -> Hist.create ()) in
  let h_service = Array.init workers (fun _ -> Hist.create ()) in
  let h_total = Array.init workers (fun _ -> Hist.create ()) in
  (* In-flight bound: every queue full plus one executing per worker,
     plus one being submitted; closed loops are additionally bounded
     by the client count.  The arena doubles if this guess is low. *)
  let arena = Request_arena.create ~cap:((workers * (queue_cap + 1)) + 1) in
  let wasp =
    match backend with
    | Virtine_exec { vconfig; pool } ->
        Some
          (Iw_virtine.Wasp.create ~obs:(Sched.obs k) ~seed:wasp_seed
             ~pool_size:pool vconfig)
    | Fiber_exec -> None
  in
  let plan = Iw_faults.Plan.ambient () in
  let hang_armed = Iw_faults.Plan.armed plan Iw_faults.Plan.Worker_hang in
  let perm_ok = match mode with Fleet _ -> true | Standalone _ -> false in
  (* Standalone hangs are clocked, never permanent: at rate 1 every
     pop with work hangs again after each one, and no request ever
     completes. *)
  if hang_armed && (not perm_ok) && Iw_faults.Plan.rate plan >= 1.0 then
    invalid_arg
      (Printf.sprintf
         "Exec.create: worker-hang at rate %g never lets a single-machine \
          plane complete a request; use a rate below 1"
         (Iw_faults.Plan.rate plan));
  let t =
    {
      ex_k = k;
      ex_workers = workers;
      ex_order = order;
      ex_backend = backend;
      ex_work_us = work_us;
      ex_work_c = work_c;
      ex_mode = mode;
      ex_queues = queues;
      ex_doorbells = doorbells;
      ex_disp = disp;
      ex_h_queue = h_queue;
      ex_h_service = h_service;
      ex_h_total = h_total;
      ex_arena = arena;
      ex_wasp = wasp;
      ex_ctr = Sched.counters k;
      ex_busy = 0;
      ex_gen_done = false;
      ex_stopping = false;
      ex_on_stop = (fun () -> ());
      ex_plan = plan;
      ex_hang_armed = hang_armed;
      ex_perm_ok = perm_ok;
      ex_slow_x1000 = 1000;
      ex_demand = demand;
      ex_demand_seed = demand_seed;
      ex_demand_scale = demand_scale;
      ex_h_corr = Hist.create ();
      ex_wd_stop = (fun () -> ());
      ex_ws =
        Array.init workers (fun w ->
            {
              w_id = w;
              w_fl =
                Sched.spawn_flat k
                  ~spec:
                    {
                      Sched.sp_name = Printf.sprintf "%s-w%d" prefix w;
                      sp_cpu = Some w;
                      sp_fp = false;
                      sp_rt = false;
                    }
                  ();
              w_state = st_start;
              w_req = -1;
              w_start = 0;
              w_resp = -1;
              w_scratch = Array.make (batch_k - 1) (-1);
              w_sc_n = 0;
              w_sc_i = 0;
              w_bc = 0;
              w_hung = false;
            });
    }
  in
  Array.iter
    (fun w -> Sched.set_flat_step w.w_fl (fun () -> w_activation t w))
    t.ex_ws;
  (* The hang watchdog: a periodic sim timer, armed only when the
     plan can actually hang a worker, so unfaulted runs never see the
     timer at all.  Like the plane's sampler, it is disarmed at stop
     (an armed periodic timer would keep a drained standalone sim
     alive forever). *)
  if hang_armed && watchdog then begin
    let sim = Sched.sim k in
    let tm = Iw_engine.Sim.timer sim in
    let period = max 1 (Iw_faults.Plan.hang_cycles plan / 4) in
    let rec fire () =
      watchdog_scan t;
      Iw_engine.Sim.arm_after sim tm period fire
    in
    Iw_engine.Sim.arm_after sim tm period fire;
    t.ex_wd_stop <- (fun () -> Iw_engine.Sim.disarm sim tm)
  end;
  t

let try_enqueue t ~intended ~hi ~arrival ~reply =
  let qi = Dispatch.pick_queues t.ex_disp t.ex_queues in
  let demand =
    match t.ex_demand with
    | Workload.Dfixed -> -1
    | d ->
        (* Hash key: the front tier's request id in a fleet (so a
           retried or hedged copy of one request costs the same on
           every machine), the local admission sequence otherwise. *)
        let id =
          match t.ex_mode with
          | Fleet _ when reply >= 0 -> reply
          | _ -> Request_arena.allocs t.ex_arena
        in
        let us =
          Workload.demand_us d ~seed:t.ex_demand_seed ~id *. t.ex_demand_scale
        in
        max 1 (Iw_hw.Platform.cycles_of_us (Sched.platform t.ex_k) us)
  in
  let idx = Request_arena.alloc ~demand ~intended t.ex_arena ~arrival ~hi ~reply in
  if Squeue.try_push t.ex_queues.(qi) ~hi idx then begin
    Iw_obs.Counter.incr t.ex_ctr Iw_obs.Counter.Service_admitted;
    if hi then Iw_obs.Counter.incr t.ex_ctr Iw_obs.Counter.Service_hi_prio;
    qi
  end
  else begin
    Request_arena.free t.ex_arena idx;
    -1
  end

let doorbell t i = t.ex_doorbells.(i)
let doorbells t = t.ex_doorbells

let depth t =
  let d = ref 0 in
  for i = 0 to t.ex_workers - 1 do
    d := !d + Squeue.length t.ex_queues.(i)
  done;
  !d

let busy_cycles t = t.ex_busy
let set_on_stop t f = t.ex_on_stop <- f
let h_queue t = t.ex_h_queue
let h_service t = t.ex_h_service
let h_total t = t.ex_h_total
let h_corrected t = t.ex_h_corr
let arena_capacity t = Request_arena.capacity t.ex_arena
let arena_grows t = Request_arena.grows t.ex_arena
let wasp t = t.ex_wasp
let set_slowdown t x1000 = t.ex_slow_x1000 <- max 1 x1000
