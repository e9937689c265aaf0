type costs = {
  interrupt_dispatch : int;
  interrupt_return : int;
  pipeline_interrupt_dispatch : int;
  ipi_send : int;
  ipi_latency : int;
  timer_program : int;
  ctx_save_int : int;
  ctx_restore_int : int;
  fp_save : int;
  fp_restore : int;
  fiber_switch_base : int;
  fiber_fp_save : int;
  fiber_fp_restore : int;
  sched_pick : int;
  sched_pick_rt : int;
  cfs_pick : int;
  kernel_entry : int;
  kernel_exit : int;
  signal_deliver : int;
  signal_return : int;
  futex_wake : int;
  futex_wait : int;
  thread_create : int;
  thread_create_user : int;
  thread_exit : int;
  tlb_miss_walk : int;
  cache_line_remote : int;
  atomic_rmw : int;
  tick_update : int;
  tick_accounting_extra : int;
  timer_path_direct : int;
  timer_path_softirq : int;
  timing_check : int;
  callback_indirect : int;
}

type t = {
  name : string;
  cores : int;
  sockets : int;
  cores_per_socket : int;
  ghz : float;
  tlb_entries : int;
  page_size_kb : int;
  large_page_size_kb : int;
  costs : costs;
}

let default_costs =
  {
    interrupt_dispatch = 1000;
    interrupt_return = 250;
    pipeline_interrupt_dispatch = 8;
    ipi_send = 120;
    ipi_latency = 500;
    timer_program = 60;
    ctx_save_int = 150;
    ctx_restore_int = 150;
    fp_save = 400;
    fp_restore = 400;
    fiber_switch_base = 380;
    fiber_fp_save = 300;
    fiber_fp_restore = 300;
    sched_pick = 120;
    sched_pick_rt = 220;
    cfs_pick = 420;
    kernel_entry = 650;
    kernel_exit = 650;
    signal_deliver = 2800;
    signal_return = 1800;
    futex_wake = 900;
    futex_wait = 1100;
    thread_create = 1800;
    thread_create_user = 28000;
    thread_exit = 600;
    tlb_miss_walk = 60;
    cache_line_remote = 180;
    atomic_rmw = 24;
    tick_update = 120;
    tick_accounting_extra = 280;
    timer_path_direct = 80;
    timer_path_softirq = 1200;
    timing_check = 40;
    callback_indirect = 20;
  }

let knl =
  {
    name = "phi-knl";
    cores = 64;
    sockets = 1;
    cores_per_socket = 64;
    ghz = 1.3;
    tlb_entries = 256;
    page_size_kb = 4;
    large_page_size_kb = 2048;
    costs =
      {
        default_costs with
        (* 512-bit vector state makes FP context movement dominate. *)
        fp_save = 600;
        fp_restore = 600;
        fiber_fp_save = 450;
        fiber_fp_restore = 450;
        cache_line_remote = 230;
      };
  }

let server_2x12 =
  {
    name = "server-2x12";
    cores = 24;
    sockets = 2;
    cores_per_socket = 12;
    ghz = 3.3;
    tlb_entries = 1536;
    page_size_kb = 4;
    large_page_size_kb = 1024;
    costs = default_costs;
  }

let bigiron_8x24 =
  {
    name = "bigiron-8x24";
    cores = 192;
    sockets = 8;
    cores_per_socket = 24;
    ghz = 2.1;
    tlb_entries = 1536;
    page_size_kb = 4;
    large_page_size_kb = 1024;
    costs = { default_costs with ipi_latency = 700; cache_line_remote = 320 };
  }

(* SecV-F: an OpenPiton/Ariane-flavored RISC-V target.  Simpler
   in-order cores: slower clock, but a shallower pipeline makes the
   trap path far cheaper than x64's — which is exactly why the paper
   wants open hardware to experiment on. *)
let riscv_openpiton =
  {
    name = "riscv-openpiton";
    cores = 16;
    sockets = 1;
    cores_per_socket = 16;
    ghz = 0.8;
    tlb_entries = 64;
    page_size_kb = 4;
    large_page_size_kb = 2048;
    costs =
      {
        default_costs with
        interrupt_dispatch = 320;
        interrupt_return = 90;
        pipeline_interrupt_dispatch = 4;
        fp_save = 180;
        fp_restore = 180;
        fiber_fp_save = 140;
        fiber_fp_restore = 140;
        cache_line_remote = 140;
      };
  }

let small =
  {
    name = "small-4";
    cores = 4;
    sockets = 1;
    cores_per_socket = 4;
    ghz = 1.0;
    tlb_entries = 64;
    page_size_kb = 4;
    large_page_size_kb = 2048;
    costs = default_costs;
  }

let with_cores t n =
  if n <= 0 then invalid_arg "Platform.with_cores: n <= 0";
  let sockets = max 1 (min t.sockets ((n + t.cores_per_socket - 1) / t.cores_per_socket)) in
  { t with cores = n; sockets; cores_per_socket = (n + sockets - 1) / sockets }

let cycles_of_us t us = Iw_engine.Units.cycles_of_us ~ghz:t.ghz us
let us_of_cycles t c = Iw_engine.Units.us_of_cycles ~ghz:t.ghz c

let pp ppf t =
  Format.fprintf ppf "%s: %d cores (%d sockets), %.1f GHz" t.name t.cores
    t.sockets t.ghz
