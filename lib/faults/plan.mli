(* Deterministic fault injection.

   A [t] is a seed-driven fault plan: every injection point in the
   stack asks the ambient plan whether a fault fires *here*, *now*.
   Decisions come from the plan's own splitmix64 stream, never from
   the workload RNG — two runs with the same (rate, seed, kinds)
   inject the identical fault schedule, and a disabled plan draws
   nothing and stays byte-identical to a run that never heard of
   faults.  Unarmed kinds also draw nothing, so adding a kind to the
   enum never perturbs the schedule of runs that don't arm it. *)

open Iw_obs

type kind =
  | Ipi_drop  (* the IPI is lost on the wire *)
  | Ipi_dup  (* the IPI is delivered twice *)
  | Ipi_delay  (* the IPI takes extra cycles to land *)
  | Timer_miss  (* an armed APIC fire is silently swallowed *)
  | Timer_late  (* the fire lands, but late *)
  | Timer_spurious  (* an extra, unasked-for fire *)
  | Cpu_stall  (* the core goes dark for N cycles mid-grant *)
  | Tlb_shootdown  (* a spurious remote shootdown / line invalidation *)
  | Virtine_fail  (* a virtine launch dies partway through boot *)
  | Pool_poison  (* a warm pool entry fails its health check *)
  | Move_interrupt  (* a CARAT region move is interrupted mid-copy *)
  | Dir_drop_ack  (* an invalidation ack never reaches the directory *)
  | Dir_stale  (* the directory names an owner that silently evicted *)
  | Barrier_drop  (* an OMP barrier arrival increment is lost *)
  | Link_drop  (* an inter-machine message vanishes on the wire *)
  | Link_delay  (* the message lands, but late *)
  | Machine_pause  (* a whole machine goes dark for one sync window *)
  | Worker_hang  (* a worker silently stops draining its queue *)
  | Req_corrupt  (* a completed response is garbage; re-execute *)
  | Machine_brownout  (* a machine slows by a drawn factor for a while *)
  | Nic_rx_drop  (* the NIC loses a frame before it reaches the ring *)
  | Nic_irq_lost  (* an asserted RX interrupt never reaches the CPU *)
  | Nic_ring_overrun  (* the RX ring spuriously reports full; frame lost *)

val kind_count : int
val kind_index : kind -> int

(* CLI spelling, `--kinds ipi-drop,timer-late`. *)
val kind_name : kind -> string
val all_kinds : kind list
val kind_of_string : string -> kind option

type t

(* The ambient default: draws nothing, injects nothing. *)
val disabled : t

(* [create ~rate ~seed ()] builds a plan that fires each armed kind
   with per-opportunity probability [rate].  The [*_cycles] knobs
   parameterize fault severity (delay lengths, stall/hang durations,
   brownout timescale).  Raises [Invalid_argument] unless rate is in
   [0,1]. *)
val create :
  ?kinds:kind list ->
  ?ipi_delay_cycles:int ->
  ?timer_late_cycles:int ->
  ?stall_cycles:int ->
  ?net_delay_cycles:int ->
  ?hang_cycles:int ->
  ?brownout_cycles:int ->
  rate:float ->
  seed:int ->
  unit ->
  t

val enabled : t -> bool
val rate : t -> float
val injected : t -> int
val ipi_delay_cycles : t -> int
val timer_late_cycles : t -> int
val stall_cycles : t -> int
val net_delay_cycles : t -> int
val hang_cycles : t -> int
val brownout_cycles : t -> int
val armed : t -> kind -> bool

(* Ambient scoping, mirroring Obs: a domain-local plan that defaults
   to [disabled], overridden for one run on one domain. *)
val ambient : unit -> t
val with_ambient : t -> (unit -> 'a) -> 'a

(* One opportunity: does a [kind] fault fire here?  Draws exactly one
   sample when the kind is armed, none otherwise.  Each injection bumps
   the [fault_injected] counter on [obs] and, when tracing, emits a
   "fault:<kind>" instant; [count] records its faults the same way. *)
val fire : t -> Obs.t -> kind:kind -> cpu:int -> ts:int -> bool

(* Bulk form for analytic sites: how many of [opportunities] fault?
   O(1) draws regardless of phase size. *)
val count :
  t -> Obs.t -> kind:kind -> opportunities:int -> cpu:int -> ts:int -> int

(* Severity draws, taken from the plan stream immediately after the
   firing draw so the full schedule (when *and* how bad) is a pure
   function of (rate, seed, kinds). *)

(* One in four hangs never clears on its own; the rest sleep for
   [hang_cycles]. *)
val draw_hang_permanent : t -> bool

(* (slowdown x1000 in [2000,4000], duration in [0.5,1.5] x
   [brownout_cycles]). *)
val draw_brownout : t -> int * int
