open Iw_engine

type kind = Work | Overhead

type state = Idle | Granted | In_irq

let nop () = ()
let nop_handler ~preempted:_ = 0

(* At most one grant is outstanding per core, so the grant record is a
   set of mutable fields reused across grants and the completion
   callback is allocated once per core; pending interrupts live in a
   ring of parallel arrays and the two delivery stages run through
   per-core preallocated callbacks over scratch fields (at most one
   delivery is in flight: the core stays [In_irq] until it returns).
   Steady-state granting and interrupt delivery allocate nothing. *)
type t = {
  cpu_id : int;
  s : Sim.t;
  obs : Iw_obs.Obs.t;
  mutable state : state;
  (* Pending-interrupt ring (FIFO), doubled when full. *)
  mutable iq_dispatch : int array;
  mutable iq_return : int array;
  mutable iq_handler : (preempted:int -> int) array;
  mutable iq_after : (unit -> unit) array;
  mutable iq_head : int;
  mutable iq_n : int;
  (* In-flight delivery scratch; valid while [state = In_irq]. *)
  mutable d_dispatch : int;
  mutable d_return : int;
  mutable d_handler : preempted:int -> int;
  mutable d_after : unit -> unit;
  mutable d_preempted : int;
  mutable d_cost : int;
  mutable handler_cb : unit -> unit;
  mutable finish_cb : unit -> unit;
  completion : Sim.timer;
  mutable g_total : int;
  mutable g_started : int;
  mutable g_stall : int; (* injected dark cycles appended to this grant *)
  mutable g_kind : kind;
  mutable g_unint : bool;
  mutable g_done : unit -> unit;
  mutable complete_cb : unit -> unit;
  mutable work : int;
  mutable overhead : int;
  mutable irq_time : int;
}

let id t = t.cpu_id
let obs t = t.obs
let busy t = match t.state with Idle -> false | Granted | In_irq -> true
let work_cycles t = t.work
let overhead_cycles t = t.overhead
let irq_cycles t = t.irq_time

let account t kind cycles =
  match kind with
  | Work -> t.work <- t.work + cycles
  | Overhead -> t.overhead <- t.overhead + cycles

(* Trace a completed (or cut-short) stretch of granted execution.
   Guarded on the enabled flag so the untraced path is a load+branch. *)
let trace_span_at t name cat ~ts ~dur =
  if t.obs.Iw_obs.Obs.trace.Iw_obs.Trace.enabled && dur > 0 then
    Iw_obs.Trace.span t.obs.Iw_obs.Obs.trace ~name ~cat ~cpu:t.cpu_id ~ts ~dur
      ()

let grant_name = function Work -> "work" | Overhead -> "overhead"

(* Record a delivered interrupt: bump the typed counter always, emit
   the span only when tracing. *)
let trace_irq t total =
  Iw_obs.Counter.incr t.obs.Iw_obs.Obs.counters Iw_obs.Counter.Irq_dispatches;
  if t.obs.Iw_obs.Obs.trace.Iw_obs.Trace.enabled then
    Iw_obs.Trace.span t.obs.Iw_obs.Obs.trace ~name:"irq" ~cat:"hw"
      ~cpu:t.cpu_id
      ~ts:(Sim.now t.s - total)
      ~dur:total ()

(* Deliver the next queued interrupt if the core is interruptible.
   Mutually recursive with grant completion: draining continues until
   the queue is empty or the core becomes un-preemptible. *)
let try_deliver t =
  let interruptible =
    match t.state with
    | In_irq -> false
    | Granted -> not t.g_unint
    | Idle -> true
  in
  if interruptible && t.iq_n > 0 then begin
    let cap = Array.length t.iq_dispatch in
    let h = t.iq_head in
    t.d_dispatch <- t.iq_dispatch.(h);
    t.d_return <- t.iq_return.(h);
    t.d_handler <- t.iq_handler.(h);
    t.d_after <- t.iq_after.(h);
    t.iq_handler.(h) <- nop_handler;
    t.iq_after.(h) <- nop;
    t.iq_head <- (h + 1) mod cap;
    t.iq_n <- t.iq_n - 1;
    (match t.state with
    | Granted ->
        Sim.disarm t.s t.completion;
        let consumed = Sim.now t.s - t.g_started in
        (* An injected stall sits at the end of the armed window:
           whatever ran past [total] was the core being dark, not
           useful execution — it is neither owed back nor counted as
           the grant's kind. *)
        let work_part = min consumed t.g_total in
        let stall_part = consumed - work_part in
        account t t.g_kind work_part;
        if stall_part > 0 then account t Overhead stall_part;
        trace_span_at t (grant_name t.g_kind) "hw" ~ts:t.g_started
          ~dur:work_part;
        if stall_part > 0 then
          trace_span_at t "stall" "fault"
            ~ts:(t.g_started + work_part)
            ~dur:stall_part;
        t.g_done <- nop;
        t.d_preempted <- max 0 (t.g_total - work_part)
    | Idle | In_irq -> t.d_preempted <- -1);
    t.state <- In_irq;
    Sim.schedule_after_unit t.s t.d_dispatch t.handler_cb
  end

let create ?obs s ~id =
  let obs = match obs with Some o -> o | None -> Iw_obs.Obs.inherit_trace () in
  let t =
    {
      cpu_id = id;
      s;
      obs;
      state = Idle;
      iq_dispatch = Array.make 4 0;
      iq_return = Array.make 4 0;
      iq_handler = Array.make 4 nop_handler;
      iq_after = Array.make 4 nop;
      iq_head = 0;
      iq_n = 0;
      d_dispatch = 0;
      d_return = 0;
      d_handler = nop_handler;
      d_after = nop;
      d_preempted = -1;
      d_cost = 0;
      handler_cb = nop;
      finish_cb = nop;
      completion = Sim.timer s;
      g_total = 0;
      g_started = 0;
      g_stall = 0;
      g_kind = Work;
      g_unint = false;
      g_done = nop;
      complete_cb = nop;
      work = 0;
      overhead = 0;
      irq_time = 0;
    }
  in
  t.complete_cb <-
    (fun () ->
      let now = Sim.now t.s in
      account t t.g_kind t.g_total;
      trace_span_at t (grant_name t.g_kind) "hw"
        ~ts:(now - t.g_stall - t.g_total)
        ~dur:t.g_total;
      if t.g_stall > 0 then begin
        account t Overhead t.g_stall;
        trace_span_at t "stall" "fault" ~ts:(now - t.g_stall) ~dur:t.g_stall
      end;
      t.state <- Idle;
      let f = t.g_done in
      t.g_done <- nop;
      f ();
      try_deliver t);
  t.handler_cb <-
    (fun () ->
      let handler_cost = t.d_handler ~preempted:t.d_preempted in
      if handler_cost < 0 then
        invalid_arg "Cpu.interrupt: handler returned negative cost";
      t.d_cost <- handler_cost;
      Sim.schedule_after_unit t.s (handler_cost + t.d_return) t.finish_cb);
  t.finish_cb <-
    (fun () ->
      let total = t.d_dispatch + t.d_cost + t.d_return in
      t.irq_time <- t.irq_time + total;
      trace_irq t total;
      t.state <- Idle;
      let after = t.d_after in
      t.d_after <- nop;
      t.d_handler <- nop_handler;
      after ();
      try_deliver t);
  t

let grant t ~cycles ~kind ~uninterruptible ~on_complete =
  if cycles < 0 then invalid_arg "Cpu.grant: negative cycles";
  (match t.state with
  | Idle -> ()
  | Granted | In_irq ->
      invalid_arg
        (Printf.sprintf "Cpu.grant: core %d is busy" t.cpu_id));
  let started = Sim.now t.s in
  (* Transient-stall injection: the core goes dark for [stall] extra
     cycles at the end of this grant.  The dark time is charged as
     overhead, never as work — the layers above see the slice take
     longer and must absorb it (heartbeat promotion lands late, the
     dynamic scheduler hands the next chunk elsewhere). *)
  let plan = Iw_faults.Plan.ambient () in
  let stall =
    if
      Iw_faults.Plan.enabled plan
      && Iw_faults.Plan.fire plan t.obs ~kind:Iw_faults.Plan.Cpu_stall
           ~cpu:t.cpu_id ~ts:started
    then Iw_faults.Plan.stall_cycles plan
    else 0
  in
  t.g_total <- cycles;
  t.g_started <- started;
  t.g_stall <- stall;
  t.g_kind <- kind;
  t.g_unint <- uninterruptible;
  t.g_done <- on_complete;
  Sim.arm_after t.s t.completion (cycles + stall) t.complete_cb;
  t.state <- Granted

let grow_ring t =
  let cap = Array.length t.iq_dispatch in
  let ncap = 2 * cap in
  let nd = Array.make ncap 0
  and nr = Array.make ncap 0
  and nh = Array.make ncap nop_handler
  and na = Array.make ncap nop in
  for i = 0 to t.iq_n - 1 do
    let j = (t.iq_head + i) mod cap in
    nd.(i) <- t.iq_dispatch.(j);
    nr.(i) <- t.iq_return.(j);
    nh.(i) <- t.iq_handler.(j);
    na.(i) <- t.iq_after.(j)
  done;
  t.iq_dispatch <- nd;
  t.iq_return <- nr;
  t.iq_handler <- nh;
  t.iq_after <- na;
  t.iq_head <- 0

let interrupt t ~dispatch ~return_cost ~handler ~after =
  if dispatch < 0 || return_cost < 0 then
    invalid_arg "Cpu.interrupt: negative cost";
  if t.iq_n = Array.length t.iq_dispatch then grow_ring t;
  let cap = Array.length t.iq_dispatch in
  let i = (t.iq_head + t.iq_n) mod cap in
  t.iq_dispatch.(i) <- dispatch;
  t.iq_return.(i) <- return_cost;
  t.iq_handler.(i) <- handler;
  t.iq_after.(i) <- after;
  t.iq_n <- t.iq_n + 1;
  try_deliver t
