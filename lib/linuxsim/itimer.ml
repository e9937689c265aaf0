open Iw_engine
open Iw_kernel

(* The expiry event, the signal handler and the resume path are built
   once per timer as closures over the record ([create] ties the
   knot), and the next grid point lives in [deadline]: an expiry
   allocates nothing. *)
type t = {
  k : Sched.t;
  cpu : int;
  period : int;
  handler_cost : int;
  handler : preempted:int -> unit;
  mutable running : bool;
  mutable pending : bool;  (* delivery in flight *)
  mutable delivered : int;
  mutable overruns : int;
  mutable deadline : int;  (* the grid point of the next expiry *)
  rng : Rng.t;
  eoi : unit -> unit;  (* the kernel's end of interrupt on [cpu] *)
  on_signal : preempted:int -> int;
  on_return : unit -> unit;
  on_expiry : unit -> unit;
}

let signal t ~preempted =
  t.delivered <- t.delivered + 1;
  t.handler ~preempted;
  (* hrtimer/softirq + signal frame + sigreturn + the user code. *)
  (Sched.personality t.k).Os.timer_extra + t.handler_cost

let resume t =
  t.pending <- false;
  t.eoi ()

let deliver t =
  t.pending <- true;
  Iw_hw.Cpu.interrupt (Sched.cpu t.k t.cpu) ~handler:t.on_signal
    ~after:t.on_return

(* Queue the expiry for [deadline], late by the personality's jitter. *)
let arm t =
  if t.running then
    let s = Sched.sim t.k in
    let jitter = max 0 ((Sched.personality t.k).Os.timer_jitter t.rng) in
    Sim.schedule_unit s ~at:(max (Sim.now s) (t.deadline + jitter)) t.on_expiry

let expire t =
  if t.running then begin
    if t.pending then t.overruns <- t.overruns + 1 else deliver t;
    t.deadline <- t.deadline + t.period;
    arm t
  end

let create k ~cpu ~period ?(handler_cost = 50) ~handler () =
  if period <= 0 then invalid_arg "Itimer.create: period <= 0";
  let rng = Rng.split (Sim.rng (Sched.sim k)) in
  let rec t =
    {
      k;
      cpu;
      period;
      handler_cost;
      handler;
      running = false;
      pending = false;
      delivered = 0;
      overruns = 0;
      deadline = 0;
      rng;
      eoi = Sched.resched_or_resume k cpu;
      on_signal = (fun ~preempted -> signal t ~preempted);
      on_return = (fun () -> resume t);
      on_expiry = (fun () -> expire t);
    }
  in
  t

let start t =
  if not t.running then begin
    t.running <- true;
    t.deadline <- Sched.now t.k + t.period;
    arm t
  end

let stop t = t.running <- false
let delivered t = t.delivered
let overruns t = t.overruns
