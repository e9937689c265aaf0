open Iw_engine
open Iw_hw

type policy = Steered of int | Spread

type t = {
  k : Sched.t;
  policy : policy;
  period : int;
  handler : preempted:int -> int;  (* the driver's top half, built once *)
  mutable running : bool;
  mutable count : int;
  counts : int array;
}

let deliver t =
  let cpu_id =
    match t.policy with
    | Steered c -> c
    | Spread -> t.count mod Sched.cpu_count t.k
  in
  t.count <- t.count + 1;
  t.counts.(cpu_id) <- t.counts.(cpu_id) + 1;
  let obs = Sched.obs t.k in
  Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Device_irqs;
  if obs.Iw_obs.Obs.trace.Iw_obs.Trace.enabled then
    Iw_obs.Trace.instant obs.Iw_obs.Obs.trace ~name:"device_irq" ~cat:"kernel"
      ~cpu:cpu_id
      ~ts:(Sim.now (Sched.sim t.k))
      ();
  Cpu.interrupt (Sched.cpu t.k cpu_id) ~handler:t.handler
    ~after:(Sched.resched_or_resume t.k cpu_id)

let start k ~rate_hz ?(handler_cost = 600) policy =
  let reject what = invalid_arg ("Device_irq.start: " ^ what) in
  if not (rate_hz > 0.0) then reject "rate_hz must be > 0";
  (match policy with
  | Steered c when c < 0 || c >= Sched.cpu_count k ->
      reject
        (Printf.sprintf "Steered cpu must be in [0,%d)" (Sched.cpu_count k))
  | Steered _ | Spread -> ());
  let plat = Sched.platform k in
  let period =
    max 1 (int_of_float (plat.Platform.ghz *. 1e9 /. rate_hz))
  in
  let t =
    {
      k;
      policy;
      period;
      handler = (fun ~preempted:_ -> handler_cost);
      running = true;
      count = 0;
      counts = Array.make (Sched.cpu_count k) 0;
    }
  in
  let s = Sched.sim k in
  let rec tick () =
    if t.running then begin
      deliver t;
      Sim.schedule_after_unit s t.period tick
    end
  in
  Sim.schedule_after_unit s t.period tick;
  t

let stop t = t.running <- false
let delivered t = t.count
let per_cpu t = Array.copy t.counts
