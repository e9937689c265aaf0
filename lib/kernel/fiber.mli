(** Fibers with compiler-based timing (§IV-C).

    A fiber scheduler multiplexes many fibers over the single kernel
    thread that calls {!run}.  Two preemption regimes:

    - [Cooperative]: fibers switch only at explicit {!yield} points.
    - [Compiler_timed]: the compiler has injected timing calls
      throughout the code so that at most [check_interval] cycles pass
      between calls (see {!Iw_passes.Timing_pass} for the real pass);
      each call costs [check_cost] cycles and, when [period] cycles
      have elapsed since the last switch, the timer framework performs
      the "preemption" as an ordinary [yield] — no interrupt
      machinery at all.

    Because fibers never take the interrupt path, a switch costs
    [fiber_switch_base] (+ FP movement when [fp]) instead of
    interrupt dispatch + kernel switch — the Figure 4 claim.

    Each fiber is one {!Iw_engine.Coro.t}: its continuation sits in the
    coroutine's slot, and a preempted fiber keeps only the cycles it is
    still owed. *)

type t
type fiber

type mode =
  | Cooperative
  | Compiler_timed of { period : int; check_interval : int; check_cost : int }

val create : Iw_hw.Platform.t -> mode:mode -> fp:bool -> t
(** The scheduler counts its switches and timing checks
    ([fiber_switches], [timing_checks]) on a counter set of its own
    that shares the ambient trace ({!Iw_obs.Obs.inherit_trace});
    {!switches} and {!timing_checks} read it. *)

val spawn : t -> (unit -> unit) -> fiber
(** Queue a fiber; it runs once {!run} reaches it. *)

val run : t -> unit
(** Drive all fibers to completion.  Must be called from inside a
    kernel thread (it consumes simulated cycles). *)

val yield : unit -> unit
(** Inside a fiber: cooperative switch point. *)

val switch_cost : t -> int
(** Cycles one fiber-to-fiber switch costs under this configuration
    (excluding the timing-check amortization). *)

val switches : t -> int
(** Total switches performed so far. *)

val timing_checks : t -> int
(** Timing-framework invocations (0 in cooperative mode).  The cycles
    spent in switches and checks are [switches t * switch_cost t] plus
    [timing_checks t] times the mode's [check_cost]. *)
