(** Deterministic discrete-event simulation core.

    Virtual time is an integer count of cycles.  Every pending
    occurrence is totally ordered by [(time, schedule counter)]: at
    one time, occurrences fire in the order they were scheduled, so
    two runs of the same program with the same seed produce identical
    schedules.

    There are two ways to put work on the clock, and both go on one
    indexed 4-ary heap in O(log n).  {!schedule_unit} queues a
    one-shot event: no handle, and its record is recycled once it
    fires.  A {!timer} is armed, fired and disarmed on one reusable
    record.  Work that may be called off is a timer: a one-shot event
    cannot be cancelled. *)

type t

type timer
(** Reusable timer: repeatedly armed/disarmed without allocation. *)

type stats = {
  heap_pushes : int;  (** one-shot events scheduled *)
  heap_pops : int;  (** one-shot events fired *)
  timer_arms : int;  (** timers armed *)
  timer_fires : int;  (** timer callbacks fired *)
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
(** O(log n) cancel; no-op on an idle timer. *)

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
