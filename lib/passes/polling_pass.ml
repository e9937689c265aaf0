open Iw_ir

let instrument ~poll_budget ~device m =
  Placement.instrument ~budget:poll_budget ~site:(Ir.Poll { device })
    ~site_cost:Cost.poll m

(* A simple device whose requests complete at given times and must
   then be serviced (by poll or by interrupt). *)
module Device = struct
  type t = {
    mutable pending : int list;  (* ascending completion times *)
    mutable latencies : int list;
    mutable polls : int;
  }

  let create ~completions =
    { pending = List.sort compare completions; latencies = []; polls = 0 }

  let poll_hook t (hooks : Interp.hooks) =
    {
      hooks with
      on_poll =
        (fun ~device ~cycles ->
          hooks.on_poll ~device ~cycles;
          t.polls <- t.polls + 1;
          let ready, rest = List.partition (fun c -> c <= cycles) t.pending in
          t.pending <- rest;
          List.iter (fun c -> t.latencies <- (cycles - c) :: t.latencies) ready);
    }

  let service_latencies t = List.rev t.latencies
  let polls t = t.polls
end

type result = {
  program : string;
  polls_executed : int;
  completions : int;
  serviced : int;
  mean_latency : float;
  max_latency : int;
  interrupt_latency : int;
  overhead_pct : float;
}

let measure ~poll_budget ~completions ~plat (p : Programs.program) =
  let plain = p.build () in
  let base = Interp.run plain p.entry p.args in
  let m = p.build () in
  ignore (instrument ~poll_budget ~device:0 m);
  let dev = Device.create ~completions in
  let hooks = Device.poll_hook dev Interp.default_hooks in
  let polled = Interp.run ~hooks m p.entry p.args in
  let lats = Device.service_latencies dev in
  let n = List.length lats in
  let mean =
    if n = 0 then 0.0
    else float_of_int (List.fold_left ( + ) 0 lats) /. float_of_int n
  in
  let costs = plat.Iw_hw.Platform.costs in
  {
    program = p.name;
    polls_executed = Device.polls dev;
    completions = List.length completions;
    serviced = n;
    mean_latency = mean;
    max_latency = List.fold_left max 0 lats;
    interrupt_latency = costs.interrupt_dispatch + costs.interrupt_return;
    overhead_pct =
      100.0
      *. (float_of_int (polled.cycles - base.cycles) /. float_of_int base.cycles);
  }
