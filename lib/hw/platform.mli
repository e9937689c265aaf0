(** Machine descriptions and hardware cost tables.

    All costs are in cycles.  The presets encode the magnitudes the
    paper and its companion papers report for the platforms they
    evaluate on (Xeon Phi KNL, a dual-socket Xeon server, an 8-socket
    big-iron box): an interrupt dispatch of roughly a thousand cycles,
    a Linux context switch with floating-point state of roughly five
    thousand, IPI latency far below signal-delivery latency, and so
    on.  Reproductions depend on these *ratios*, not on the absolute
    values. *)

type costs = {
  (* Interrupt path *)
  interrupt_dispatch : int;  (** IDT entry to first handler insn (§V-D: ~1000). *)
  interrupt_return : int;  (** iret path. *)
  pipeline_interrupt_dispatch : int;
      (** §V-D branch-injected delivery: like a predicted branch + MSR
          return. *)
  ipi_send : int;  (** LAPIC ICR write on the sender. *)
  ipi_latency : int;  (** Fabric flight time to the target core. *)
  timer_program : int;  (** LAPIC timer reprogram. *)
  (* Context/state movement *)
  ctx_save_int : int;  (** Integer register save. *)
  ctx_restore_int : int;
  fp_save : int;  (** Full vector/FP state save (AVX-512 on KNL is big). *)
  fp_restore : int;
  fiber_switch_base : int;
      (** Compiler-timed fiber switch: call + callee-saved regs + stack
          swap, no interrupt machinery (§IV-C). *)
  fiber_fp_save : int;
      (** Compiler-aware FP save: only live vector state. *)
  fiber_fp_restore : int;
  (* Scheduling *)
  sched_pick : int;  (** Per-core run-queue pick (Nautilus-like). *)
  sched_pick_rt : int;  (** Real-time (EDF-ish) admission+pick. *)
  cfs_pick : int;  (** Linux CFS pick: heavier, tree-based. *)
  (* Kernel/user boundary (Linux-like stacks only) *)
  kernel_entry : int;
      (** Syscall/trap entry incl. speculation mitigations. *)
  kernel_exit : int;
  signal_deliver : int;  (** Kernel-to-user signal frame setup. *)
  signal_return : int;  (** sigreturn. *)
  futex_wake : int;
  futex_wait : int;
  (* Thread lifecycle *)
  thread_create : int;  (** Nautilus-like in-kernel thread creation. *)
  thread_create_user : int;  (** Linux user-level (clone + libc). *)
  thread_exit : int;
  (* Memory system *)
  tlb_miss_walk : int;  (** Page-table walk on a TLB miss. *)
  cache_line_remote : int;  (** Line transfer across the interconnect. *)
  atomic_rmw : int;  (** Uncontended atomic read-modify-write. *)
  (* Timer tick and timing-event paths (hoisted from per-module magic
     numbers so experiments can sweep them). *)
  tick_update : int;
      (** Lightweight per-tick bookkeeping a Nautilus-style kernel does
          on each timer tick (§IV-B: a specialized kernel's tick is a
          couple hundred cycles, not thousands). *)
  tick_accounting_extra : int;
      (** Extra accounting a general-purpose (Linux-like) tick carries:
          cputime accounting, RCU callbacks, load tracking.  A Linux
          tick is [tick_update + tick_accounting_extra]. *)
  timer_path_direct : int;
      (** Timer expiry dispatched directly from the interrupt handler
          (kernel-mode callbacks, §IV-B). *)
  timer_path_softirq : int;
      (** Timer expiry deferred through a softirq-style bottom half
          before user delivery — the Linux hrtimer→signal path the
          paper's §V-B timing measurements have to cross. *)
  timing_check : int;
      (** One compiler-inserted timing check (polling branch) in
          compiler-timed fibers (§IV-C: tens of cycles). *)
  callback_indirect : int;
      (** Indirect-call overhead of invoking a registered timing
          callback from the runtime (function-pointer dispatch). *)
}

type t = {
  name : string;
  cores : int;
  sockets : int;
  cores_per_socket : int;
  ghz : float;
  tlb_entries : int;
  page_size_kb : int;  (** Base (small) page size used by demand paging. *)
  large_page_size_kb : int;  (** Identity-mapping page size (Nautilus). *)
  costs : costs;
}

val knl : t
(** Xeon-Phi-KNL-like: 64 slow cores at 1.3 GHz, expensive (512-bit)
    FP state. *)

val server_2x12 : t
(** Dual-socket 3.3 GHz 12-core server (§V-B evaluation machine). *)

val bigiron_8x24 : t
(** 8-socket, 192-core machine (§V-A repetition study). *)

val riscv_openpiton : t
(** OpenPiton/Ariane-flavored RISC-V machine (§V-F): the open-hardware
    target the interweaving agenda wants for hardware-level
    experiments.  Cheap trap path, slow clock. *)

val small : t
(** 4-core toy machine for unit tests. *)

val with_cores : t -> int -> t
(** Same platform restricted/expanded to [n] cores (keeps socket
    geometry proportional). *)

val cycles_of_us : t -> float -> int
val us_of_cycles : t -> int -> float
val pp : Format.formatter -> t -> unit
