(* Typed event counters.

   Every layer of the stack counts through one preallocated int-array
   set addressed by a closed variant — a counter bump is two array
   ops on a constant index, where the old string-keyed hashtable paid
   a hash + probe + deref per event on scheduler hot paths.  Each id
   has one stable snake_case name, which is what renderings, goldens
   and digests print. *)

type id =
  (* kernel / scheduler *)
  | Context_switches
  | Preemptions
  | Ticks
  | Spawns
  | Thread_exits
  | Lock_contended
  (* hardware *)
  | Irq_dispatches
  | Ipi_sends
  | Timer_fires
  (* kernel services *)
  | Fiber_switches
  | Timing_checks
  | Device_irqs
  (* runtimes *)
  | Promotions
  | Steals
  | Heartbeats
  | Omp_regions
  | Omp_chunks
  | Guard_checks
  | Guard_faults
  | Virtine_spawns
  | Virtine_pool_hits
  (* coherence *)
  | Dir_transitions
  (* fault injection and recovery *)
  | Fault_injected
  | Ipi_retry
  | Watchdog_fire
  | Virtine_relaunch
  | Pool_evict
  | Move_rollback
  | Dir_ack_retry
  | Dir_stale_refetch
  | Barrier_recover
  (* service plane *)
  | Service_arrivals
  | Service_admitted
  | Service_completions
  | Service_shed
  | Service_backpressure
  | Service_hi_prio
  (* fleet / inter-machine network *)
  | Net_msgs
  | Net_drops
  | Net_retries
  | Net_nacks
  | Gossip_msgs
  | Machine_ejects
  | Service_failed
  (* service-level chaos + graceful degradation *)
  | Peer_steal
  | Hedge_sent
  | Hedge_won
  | Hedge_cancel
  | Admission_shed
  | Corrupt_retry
  (* NIC device + driver *)
  | Nic_rx_pkts
  | Nic_rx_drops
  | Nic_irqs
  | Nic_polls
  | Nic_poll_empty
  | Nic_tx_pkts
  | Nic_irq_recover

let count = 57

let index = function
  | Context_switches -> 0
  | Preemptions -> 1
  | Ticks -> 2
  | Spawns -> 3
  | Thread_exits -> 4
  | Lock_contended -> 5
  | Irq_dispatches -> 6
  | Ipi_sends -> 7
  | Timer_fires -> 8
  | Fiber_switches -> 9
  | Timing_checks -> 10
  | Device_irqs -> 11
  | Promotions -> 12
  | Steals -> 13
  | Heartbeats -> 14
  | Omp_regions -> 15
  | Omp_chunks -> 16
  | Guard_checks -> 17
  | Guard_faults -> 18
  | Virtine_spawns -> 19
  | Virtine_pool_hits -> 20
  | Dir_transitions -> 21
  | Fault_injected -> 22
  | Ipi_retry -> 23
  | Watchdog_fire -> 24
  | Virtine_relaunch -> 25
  | Pool_evict -> 26
  | Move_rollback -> 27
  | Dir_ack_retry -> 28
  | Dir_stale_refetch -> 29
  | Barrier_recover -> 30
  | Service_arrivals -> 31
  | Service_admitted -> 32
  | Service_completions -> 33
  | Service_shed -> 34
  | Service_backpressure -> 35
  | Service_hi_prio -> 36
  | Net_msgs -> 37
  | Net_drops -> 38
  | Net_retries -> 39
  | Net_nacks -> 40
  | Gossip_msgs -> 41
  | Machine_ejects -> 42
  | Service_failed -> 43
  | Peer_steal -> 44
  | Hedge_sent -> 45
  | Hedge_won -> 46
  | Hedge_cancel -> 47
  | Admission_shed -> 48
  | Corrupt_retry -> 49
  | Nic_rx_pkts -> 50
  | Nic_rx_drops -> 51
  | Nic_irqs -> 52
  | Nic_polls -> 53
  | Nic_poll_empty -> 54
  | Nic_tx_pkts -> 55
  | Nic_irq_recover -> 56

(* Names match the strings the old hashtable counters used, so table
   rendering is unchanged. *)
let name = function
  | Context_switches -> "context_switches"
  | Preemptions -> "preemptions"
  | Ticks -> "ticks"
  | Spawns -> "spawns"
  | Thread_exits -> "thread_exits"
  | Lock_contended -> "lock_contended"
  | Irq_dispatches -> "irq_dispatches"
  | Ipi_sends -> "ipi_sends"
  | Timer_fires -> "timer_fires"
  | Fiber_switches -> "fiber_switches"
  | Timing_checks -> "timing_checks"
  | Device_irqs -> "device_irqs"
  | Promotions -> "promotions"
  | Steals -> "steals"
  | Heartbeats -> "heartbeats"
  | Omp_regions -> "omp_regions"
  | Omp_chunks -> "omp_chunks"
  | Guard_checks -> "guard_checks"
  | Guard_faults -> "guard_faults"
  | Virtine_spawns -> "virtine_spawns"
  | Virtine_pool_hits -> "virtine_pool_hits"
  | Dir_transitions -> "dir_transitions"
  | Fault_injected -> "fault_injected"
  | Ipi_retry -> "ipi_retry"
  | Watchdog_fire -> "watchdog_fire"
  | Virtine_relaunch -> "virtine_relaunch"
  | Pool_evict -> "pool_evict"
  | Move_rollback -> "move_rollback"
  | Dir_ack_retry -> "dir_ack_retry"
  | Dir_stale_refetch -> "dir_stale_refetch"
  | Barrier_recover -> "barrier_recover"
  | Service_arrivals -> "service_arrivals"
  | Service_admitted -> "service_admitted"
  | Service_completions -> "service_completions"
  | Service_shed -> "service_shed"
  | Service_backpressure -> "service_backpressure"
  | Service_hi_prio -> "service_hi_prio"
  | Net_msgs -> "net_msgs"
  | Net_drops -> "net_drops"
  | Net_retries -> "net_retries"
  | Net_nacks -> "net_nacks"
  | Gossip_msgs -> "gossip_msgs"
  | Machine_ejects -> "machine_ejects"
  | Service_failed -> "service_failed"
  | Peer_steal -> "peer_steal"
  | Hedge_sent -> "hedge_sent"
  | Hedge_won -> "hedge_won"
  | Hedge_cancel -> "hedge_cancel"
  | Admission_shed -> "admission_shed"
  | Corrupt_retry -> "corrupt_retry"
  | Nic_rx_pkts -> "nic_rx_pkts"
  | Nic_rx_drops -> "nic_rx_drops"
  | Nic_irqs -> "nic_irqs"
  | Nic_polls -> "nic_polls"
  | Nic_poll_empty -> "nic_poll_empty"
  | Nic_tx_pkts -> "nic_tx_pkts"
  | Nic_irq_recover -> "nic_irq_recover"

let all =
  [
    Context_switches;
    Preemptions;
    Ticks;
    Spawns;
    Thread_exits;
    Lock_contended;
    Irq_dispatches;
    Ipi_sends;
    Timer_fires;
    Fiber_switches;
    Timing_checks;
    Device_irqs;
    Promotions;
    Steals;
    Heartbeats;
    Omp_regions;
    Omp_chunks;
    Guard_checks;
    Guard_faults;
    Virtine_spawns;
    Virtine_pool_hits;
    Dir_transitions;
    Fault_injected;
    Ipi_retry;
    Watchdog_fire;
    Virtine_relaunch;
    Pool_evict;
    Move_rollback;
    Dir_ack_retry;
    Dir_stale_refetch;
    Barrier_recover;
    Service_arrivals;
    Service_admitted;
    Service_completions;
    Service_shed;
    Service_backpressure;
    Service_hi_prio;
    Net_msgs;
    Net_drops;
    Net_retries;
    Net_nacks;
    Gossip_msgs;
    Machine_ejects;
    Service_failed;
    Peer_steal;
    Hedge_sent;
    Hedge_won;
    Hedge_cancel;
    Admission_shed;
    Corrupt_retry;
    Nic_rx_pkts;
    Nic_rx_drops;
    Nic_irqs;
    Nic_polls;
    Nic_poll_empty;
    Nic_tx_pkts;
    Nic_irq_recover;
  ]

type set = int array

let create () : set = Array.make count 0

let incr (s : set) id =
  let i = index id in
  Array.unsafe_set s i (Array.unsafe_get s i + 1)

let add (s : set) id k =
  let i = index id in
  Array.unsafe_set s i (Array.unsafe_get s i + k)

let get (s : set) id = s.(index id)

let reset (s : set) = Array.fill s 0 count 0

let merge_into ~(dst : set) (src : set) =
  for i = 0 to count - 1 do
    dst.(i) <- dst.(i) + src.(i)
  done

let sum (sets : set list) : set =
  let dst = create () in
  List.iter (fun s -> merge_into ~dst s) sets;
  dst

(* Only counters that have fired, sorted by name (counters only ever
   increment, so a zero cell was never touched). *)
let to_list (s : set) =
  List.filter_map
    (fun id ->
      let v = get s id in
      if v <> 0 then Some (name id, v) else None)
    all
  |> List.sort (fun (a, _) (b, _) -> compare a b)
