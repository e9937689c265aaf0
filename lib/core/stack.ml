type os_choice = Nautilus | Linux

type memory_choice = Demand_paging | Carat

type timing_choice = Hardware_timer | Compiler_timed of { check_budget : int }

type event_choice = Signal_chain | Ipi_broadcast

type t = {
  platform : Iw_hw.Platform.t;
  os : os_choice;
  memory : memory_choice;
  timing : timing_choice;
  events : event_choice;
}

let commodity platform =
  {
    platform;
    os = Linux;
    memory = Demand_paging;
    timing = Hardware_timer;
    events = Signal_chain;
  }

let interwoven platform =
  {
    platform;
    os = Nautilus;
    memory = Carat;
    timing = Compiler_timed { check_budget = 2000 };
    events = Ipi_broadcast;
  }

let describe t =
  Printf.sprintf "%s on %s: %s memory, %s timing, %s events"
    (match t.os with Nautilus -> "nautilus" | Linux -> "linux")
    t.platform.Iw_hw.Platform.name
    (match t.memory with
    | Demand_paging -> "demand-paged"
    | Carat -> "carat-guarded")
    (match t.timing with
    | Hardware_timer -> "hw-timer"
    | Compiler_timed { check_budget } ->
        Printf.sprintf "compiler-timed(%d)" check_budget)
    (match t.events with
    | Signal_chain -> "signal-chain"
    | Ipi_broadcast -> "ipi-broadcast")

let personality t =
  match t.os with
  | Nautilus -> Iw_kernel.Os.nautilus t.platform
  | Linux -> Iw_kernel.Os.linux t.platform

let boot ?seed t =
  Iw_kernel.Sched.boot ?seed ~personality:(personality t) t.platform

let event_delivery_cycles t =
  let c = t.platform.Iw_hw.Platform.costs in
  match t.events with
  | Signal_chain ->
      c.interrupt_dispatch + c.signal_deliver + c.signal_return
      + c.kernel_entry + c.kernel_exit
  | Ipi_broadcast -> c.ipi_send + c.ipi_latency + c.interrupt_dispatch

let timer_mechanism_cost t =
  let c = t.platform.Iw_hw.Platform.costs in
  match t.timing with
  | Hardware_timer -> c.interrupt_dispatch + c.interrupt_return
  | Compiler_timed _ -> Iw_ir.Cost.callback + c.callback_indirect
