(** Thread-side kernel API.

    These wrappers are what workload and runtime code call from inside
    a simulated coroutine thread.  They perform {!Sched} requests,
    which the kernel serves through the same entry points a flat
    thread calls; each costs what the booted personality says it
    costs.  [work n] is the fundamental "run n cycles of computation"
    primitive. *)

val work : int -> unit
(** Burn [n] cycles of useful work (preemptible). *)

val spawn :
  ?name:string ->
  ?cpu:int ->
  ?fp:bool ->
  ?rt:bool ->
  (unit -> unit) ->
  Sched.thread

val join : Sched.thread -> unit
val now : unit -> int
val cpu_id : unit -> int
val sleep : int -> unit
(** Sleep for [n] cycles (arms a software timer). *)

val rand : int -> int
(** Deterministic per-kernel random int in [\[0, bound)]. *)

val overhead : int -> unit
(** Burn [n] cycles accounted as runtime overhead rather than work. *)

val unlock : Sched.mutex -> unit
val with_lock : Sched.mutex -> (unit -> 'a) -> 'a
val sem_wait : Sched.semaphore -> unit
val sem_post : Sched.semaphore -> unit

val parallel : ?fp:bool -> int -> (int -> unit) -> unit
(** [parallel n f] spawns [f 1 .. f (n-1)] on distinct CPUs, runs
    [f 0] inline, and joins them all: the basic fork-join helper. *)
