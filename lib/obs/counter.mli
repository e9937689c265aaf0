(** Typed event counters shared by every layer of the stack.

    A counter bump is two array operations on a constant index, on a
    closed [id] variant: no string hashing on scheduler hot paths.
    A count lives in one cell of one set; a component keeps no tally
    beside a counter it bumps. *)

type id =
  | Context_switches
  | Preemptions
  | Ticks
  | Spawns
  | Thread_exits
  | Lock_contended
  | Irq_dispatches
  | Ipi_sends
  | Timer_fires
  | Fiber_switches
  | Timing_checks
  | Device_irqs
  | Promotions
  | Steals
  | Heartbeats
  | Omp_regions
  | Omp_chunks
  | Guard_checks
  | Guard_faults
  | Virtine_spawns
  | Virtine_pool_hits
  | Dir_transitions
  | Fault_injected
  | Ipi_retry
  | Watchdog_fire
  | Virtine_relaunch
  | Pool_evict
  | Move_rollback
  | Dir_ack_retry
  | Dir_stale_refetch
  | Barrier_recover
  | Service_arrivals
  | Service_admitted
  | Service_completions
  | Service_shed
  | Service_backpressure
  | Service_hi_prio
  | Net_msgs
  | Net_drops
  | Net_retries
  | Net_nacks
  | Gossip_msgs
  | Machine_ejects
  | Service_failed
  | Peer_steal
  | Hedge_sent
  | Hedge_won
  | Hedge_cancel
  | Admission_shed
  | Corrupt_retry
  | Nic_rx_pkts
  | Nic_rx_drops
  | Nic_irqs
  | Nic_polls
  | Nic_poll_empty
  | Nic_tx_pkts
  | Nic_irq_recover

val count : int
(** Number of distinct counter ids. *)

val index : id -> int
(** Dense index in [0, count). *)

val name : id -> string
(** Stable snake_case name: what renderings, goldens and digests
    print. *)

val all : id list
(** Every id, in declaration order. *)

type set = int array
(** Preallocated cells; exposed concretely so a bump compiles to two
    array operations with no call. *)

val create : unit -> set
val incr : set -> id -> unit
val add : set -> id -> int -> unit
val get : set -> id -> int
val reset : set -> unit

val merge_into : dst:set -> set -> unit
(** Add every cell of [src] into [dst]. *)

val sum : set list -> set
(** Fresh set holding the cell-wise sum of [sets]. *)

val to_list : set -> (string * int) list
(** Counters that have fired, as [(name, value)] sorted by name. *)
