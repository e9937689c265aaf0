(** Deterministic discrete-event simulation core.

    Virtual time is an integer count of cycles.  Events are totally
    ordered by [(time, sequence-number)] — packed into one int key
    ({!Ekey}) — so two runs of the same program with the same seed
    produce identical schedules.

    There are two ways to put work on the clock.  {!schedule_unit}
    queues a one-shot event on a binary heap: O(log n), no handle, and
    its record is recycled once it fires.  A {!timer}, backed by a
    hierarchical {!Timer_wheel}, is armed, fired and disarmed in O(1)
    on one reusable record.  Work that may be called off is a timer:
    a heap event cannot be cancelled. *)

type t

type timer
(** Reusable timer: repeatedly armed/disarmed without allocation. *)

type stats = {
  heap_pushes : int;  (** events pushed on the binary heap *)
  heap_pops : int;  (** events popped (fired or purged) off the heap *)
  timer_arms : int;  (** timer arms (wheel or fallback) *)
  timer_fires : int;  (** timer callbacks fired *)
  timer_cascades : int;  (** wheel timers re-homed to a lower level *)
}

val create : ?seed:int -> unit -> t
(** Fresh simulator at time 0.  [seed] (default 42) seeds the
    simulator's root RNG. *)

val now : t -> int
(** Current virtual time, in cycles. *)

val rng : t -> Rng.t
(** The simulator's root RNG.  Subsystems should [Rng.split] it. *)

val stats : t -> stats
(** Cumulative event-queue traffic counters. *)

val schedule_unit : t -> at:int -> (unit -> unit) -> unit
(** [schedule_unit t ~at f] runs [f] at virtual time [at].  The event
    record is recycled through a free list after it fires, so
    scheduling does not allocate in steady state.  @raise
    Invalid_argument if [at] is in the past. *)

val schedule_after_unit : t -> int -> (unit -> unit) -> unit
(** [schedule_after_unit t dt f] = [schedule_unit t ~at:(now t + dt) f]. *)

val timer : t -> timer
(** Fresh idle timer. *)

val arm : t -> timer -> at:int -> (unit -> unit) -> unit
(** Arm a timer to fire once at [at].  @raise Invalid_argument if the
    timer is already armed or [at] is in the past.  Re-arming from
    inside the timer's own callback is the intended idiom for
    periodic work. *)

val arm_after : t -> timer -> int -> (unit -> unit) -> unit
(** [arm_after t tm dt f] = [arm t tm ~at:(now t + dt) f]. *)

val disarm : t -> timer -> unit
(** O(1) cancel; no-op on an idle timer.  A timer armed behind the
    wheel's clock (a bounded run can leave it cascaded ahead of
    {!now}) rides the heap instead; disarming it leaves a skipped
    entry there. *)

val pending : t -> int
(** Number of not-yet-fired events plus armed timers.  O(1). *)

val run : ?max_events:int -> t -> unit
(** Drain the event queue.  [max_events] bounds the number of fired
    events (guards against accidental non-termination in tests). *)

val run_until : t -> int -> unit
(** [run_until t h] fires everything due at or before [h] (the event
    at [h] itself still fires, later ones do not and remain queued).
    Allocation-free, so a loop of conservative windows can call it
    once per window. *)

val exhausted : t -> bool
(** True when no live events or armed timers remain.  O(1). *)
