open Iw_engine

(* Each [periodic] call allocates one reusable Sim.timer for its
   stream, then re-arms that same record every tick through the O(1)
   timer wheel, instead of pushing a fresh heap event per tick.
   Several streams may coexist on one LAPIC (e.g. a heartbeat driver
   installed on top of scheduler ticks); [armed] tracks the most
   recently re-armed one, and the generation counter quiesces the
   rest after [stop], exactly as before. *)

type t = {
  s : Sim.t;
  plat : Platform.t;
  target : Cpu.t;
  mutable armed : Sim.timer option;
  mutable generation : int;
}

let create s plat target = { s; plat; target; armed = None; generation = 0 }

let inject t handler after =
  let obs = Cpu.obs t.target in
  Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Timer_fires;
  if obs.Iw_obs.Obs.trace.Iw_obs.Trace.enabled then
    Iw_obs.Trace.instant obs.Iw_obs.Obs.trace ~name:"timer_fire" ~cat:"hw"
      ~cpu:(Cpu.id t.target) ~ts:(Sim.now t.s) ();
  Cpu.interrupt t.target ~dispatch:t.plat.Platform.costs.interrupt_dispatch
    ~return_cost:t.plat.Platform.costs.interrupt_return ~handler ~after

(* The fault plan sits between the armed timer and the interrupt it
   raises: a [Timer_miss] swallows the fire entirely (the stream stays
   armed — only this delivery is lost), [Timer_late] postpones it, and
   [Timer_spurious] raises an extra one.  Late deliveries re-check the
   generation so a [stop] still quiesces them. *)
let deliver t ~gen handler after =
  let plan = Iw_faults.Plan.ambient () in
  if not (Iw_faults.Plan.enabled plan) then inject t handler after
  else begin
    let obs = Cpu.obs t.target in
    let cpu = Cpu.id t.target and ts = Sim.now t.s in
    if Iw_faults.Plan.fire plan obs ~kind:Iw_faults.Plan.Timer_miss ~cpu ~ts
    then ()
    else begin
      (if Iw_faults.Plan.fire plan obs ~kind:Iw_faults.Plan.Timer_late ~cpu ~ts
       then
         Sim.schedule_after_unit t.s
           (Iw_faults.Plan.timer_late_cycles plan)
           (fun () -> if gen = t.generation then inject t handler after)
       else inject t handler after);
      if
        Iw_faults.Plan.fire plan obs ~kind:Iw_faults.Plan.Timer_spurious ~cpu
          ~ts
      then inject t handler after
    end
  end

let periodic t ?phase ~period ~handler ~after () =
  if period <= 0 then invalid_arg "Lapic.periodic: period <= 0";
  let first = match phase with None -> period | Some p -> max 1 p in
  let gen = t.generation in
  let tm = Sim.timer t.s in
  (* Allocated once per stream: re-arming the same timer every tick
     must not box a fresh [Some]. *)
  let armed_tm = Some tm in
  let rec tick () =
    if gen = t.generation then begin
      deliver t ~gen handler after;
      Sim.arm_after t.s tm period tick;
      t.armed <- armed_tm
    end
  in
  Sim.arm_after t.s tm first tick;
  t.armed <- armed_tm

let stop t =
  t.generation <- t.generation + 1;
  Option.iter (Sim.disarm t.s) t.armed;
  t.armed <- None
