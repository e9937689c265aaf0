(** Simulated NIC: RX/TX descriptor rings, batched receive, and an
    ITR-style interrupt-moderation register.

    The device is pure event-context state on one machine's simulator:
    the wire pushes frames into the RX ring ({!rx_push}), the driver
    drains them ({!rx_peek_a}/{!rx_consume}) either from an interrupt
    handler or from a poll loop, and completions queue on the TX ring
    which drains asynchronously at a fixed per-descriptor cost.

    Interrupt semantics follow the ixy/82599 model: asserting the RX
    interrupt auto-masks it (IMS-style), so the device stays quiet
    until the driver re-enables via {!enable_irq}; re-assertion is
    then subject to the ITR register — a minimum inter-interrupt gap
    in virtual cycles (0 = unmoderated), enforced with a deterministic
    one-shot timer rather than wall-clock state.

    Fault hooks (ambient {!Iw_faults.Plan} captured at creation):
    [Nic_rx_drop] loses a frame before it reaches the ring,
    [Nic_ring_overrun] makes the ring spuriously report full, and
    [Nic_irq_lost] swallows an asserted interrupt after the auto-mask
    — stranding the ring until a layer above notices ({!irq_enabled}
    false, {!irq_inflight} false, {!rx_avail} > 0 is exactly the
    stranded state a driver slack timer can test for). *)

(** Flat int-array descriptor ring: three words per slot (two payload
    words plus the enqueue timestamp), power-of-two capacity, free-
    running head/tail indices.  Slots are recycled in place — no
    allocation after [create]. *)
module Ring : sig
  type t

  val create : int -> t
  (** [create cap] rounds [cap] up to a power of two.  @raise
      Invalid_argument if [cap <= 0]. *)

  val capacity : t -> int
  val length : t -> int
  val is_empty : t -> bool
  val is_full : t -> bool

  val push : t -> a:int -> b:int -> ts:int -> bool
  (** False (and one overrun accounted) when the ring is full. *)

  val peek_a : t -> int
  val peek_b : t -> int
  val peek_ts : t -> int
  (** Oldest undelivered slot.  @raise Invalid_argument when empty. *)

  val pop : t -> unit
  (** Consume the oldest slot.  @raise Invalid_argument when empty. *)

  val overruns : t -> int
  (** Pushes rejected because the ring was full. *)
end

type t

val create : obs:Iw_obs.Obs.t -> sim:Iw_engine.Sim.t -> int -> t
(** [create ~obs ~sim itr_cycles] is a device with 256-slot RX and TX
    rings.  [itr_cycles] is the ITR register: the minimum gap between
    interrupt assertions, in cycles; 0 asserts on every
    enabled-with-work edge.  The device counts received, dropped and
    sent frames and delivered interrupts ([nic_rx_pkts],
    [nic_rx_drops], [nic_tx_pkts], [nic_irqs]) on [obs]'s counter set
    and nowhere else; the ambient fault plan is captured here, like
    [Exec].  @raise Invalid_argument if [itr_cycles < 0]. *)

val set_on_irq : t -> (unit -> unit) -> unit
(** Driver hook: called from event context when the device asserts its
    (auto-masked) RX interrupt. *)

val set_on_tx : t -> (a:int -> b:int -> unit) -> unit
(** Wire hook: called as each TX descriptor finishes serializing. *)

val rx_push : t -> a:int -> b:int -> bool
(** A frame arrives from the wire.  Draws the RX fault kinds, then
    lands in the RX ring (true) or is dropped (false: fault, injected
    overrun, or genuinely full ring).  May assert the interrupt. *)

val rx_avail : t -> int
val rx_peek_a : t -> int
val rx_peek_b : t -> int
val rx_consume : t -> unit
(** Driver-side batched receive: check [rx_avail], peek, consume. *)

val irq_enabled : t -> bool

val enable_irq : t -> unit
(** Driver re-enables after a drain; if frames remain the device
    re-asserts, subject to ITR. *)

val disable_irq : t -> unit
(** Poll-mode driver masks the device permanently. *)

val irq_inflight : t -> bool
(** An assertion has been delivered to [on_irq] and the driver has not
    yet finished handling it ({!irq_done}). *)

val irq_done : t -> unit
(** Driver handler epilogue: the in-flight interrupt is handled. *)

val tx_push : t -> a:int -> b:int -> bool
(** Queue a completion on the TX ring; false = ring full, frame lost
    (recovery is the sender's retry, one layer up).  The ring drains
    at 120 cycles per descriptor, invoking [on_tx]. *)

val stop : t -> unit
(** Disarm the ITR and TX timers so a drained simulator terminates. *)

val irqs_lost : t -> int
(** Assertions the [Nic_irq_lost] fault swallowed.  No typed counter
    holds this count alone: [fault_injected] sums every kind. *)
