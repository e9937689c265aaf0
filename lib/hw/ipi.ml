open Iw_engine

(* A delivery is built once per target and handler: [arrive] is its
   only closure, so a send schedules it and allocates nothing. *)
type delivery = {
  s : Sim.t;
  costs : Platform.costs;
  target : Cpu.t;
  arrive : unit -> unit;  (* the wire latency is over: interrupt the target *)
}

let delivery s plat ~target ~handler ~after =
  let costs = plat.Platform.costs in
  let obs = Cpu.obs target in
  let arrive () =
    if obs.Iw_obs.Obs.trace.Iw_obs.Trace.enabled then
      Iw_obs.Trace.instant obs.Iw_obs.Obs.trace ~name:"ipi_recv" ~cat:"hw"
        ~cpu:(Cpu.id target) ~ts:(Sim.now s) ();
    Cpu.interrupt target ~handler ~after
  in
  { s; costs; target; arrive }

let send d =
  let s = d.s and costs = d.costs in
  let obs = Cpu.obs d.target in
  Iw_obs.Counter.incr obs.Iw_obs.Obs.counters Iw_obs.Counter.Ipi_sends;
  if obs.Iw_obs.Obs.trace.Iw_obs.Trace.enabled then
    Iw_obs.Trace.instant obs.Iw_obs.Obs.trace ~name:"ipi_send" ~cat:"hw"
      ~cpu:(-1) ~ts:(Sim.now s) ();
  let plan = Iw_faults.Plan.ambient () in
  if not (Iw_faults.Plan.enabled plan) then
    Sim.schedule_after_unit s costs.ipi_latency d.arrive
  else begin
    (* The injection point is the wire itself: the sender has already
       paid its cost and counted the send; whether the message lands,
       lands late, or lands twice is the fault plan's call.  Kinds are
       queried in a fixed order so each kind's schedule is stable. *)
    let cpu = Cpu.id d.target and ts = Sim.now s in
    if Iw_faults.Plan.fire plan obs ~kind:Iw_faults.Plan.Ipi_drop ~cpu ~ts then
      ()
    else begin
      let latency =
        if Iw_faults.Plan.fire plan obs ~kind:Iw_faults.Plan.Ipi_delay ~cpu ~ts
        then costs.ipi_latency + Iw_faults.Plan.ipi_delay_cycles
        else costs.ipi_latency
      in
      Sim.schedule_after_unit s latency d.arrive;
      if Iw_faults.Plan.fire plan obs ~kind:Iw_faults.Plan.Ipi_dup ~cpu ~ts then
        Sim.schedule_after_unit s (latency + costs.ipi_latency) d.arrive
    end
  end
