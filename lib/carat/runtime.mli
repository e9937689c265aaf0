open Iw_ir
(** The CARAT runtime (§IV-A).

    The other half of the CARAT pass: a region table fed by the
    injected tracking calls, guard validation for the injected
    protection checks, and region {e migration} — moving live data to
    new physical addresses with a forwarding map that redirects every
    subsequent (compiler-mediated) access.  All code runs on physical
    addresses; no paging hardware is involved anywhere.

    Allocation is backed by a real buddy allocator, so fragmentation
    and compaction are observable, not simulated. *)

type t

val create : ?obs:Iw_obs.Obs.t -> ?heap_size:int -> unit -> t
(** [heap_size] (bytes/words, default [1 lsl 22]) sizes the physical
    heap.  [obs] (default: ambient) counts guard checks and faults. *)

val hooks : t -> Interp.hooks
(** Interpreter hooks wiring this runtime into compiled code:
    allocation, tracking, guard validation, and address
    translation. *)

(** {1 Region map} *)

val region_count : t -> int
val live_words : t -> int

val regions : t -> (int * int) list
(** All live regions as [(logical_base, size)], ascending. *)

val guard_checks : t -> int
val guard_faults : t -> int
(** Faults counted before the exception propagates. *)

(** {1 Data movement} *)

val move_region : t -> base:int -> int option
(** Migrate the region at [base] to a fresh location (lowest
    available).  Returns the new base, or [None] if no space.  Copies
    the contents and installs forwarding so existing pointers held by
    the program still translate correctly. *)

val defragment : t -> int
(** Whole-heap compaction: migrate live regions downward until no
    move lowers a base.  Returns the number of regions moved. *)

val fragmentation : t -> float
(** Buddy-level external fragmentation, 0..1. *)

val moves : t -> int
val moved_words : t -> int

val rollbacks : t -> int
(** Moves rolled back by the guard-violation quarantine path: the
    partial destination was released and the region kept its intact
    source.  Nonzero only under an active fault plan. *)

(** {1 Tracing} *)

val traced_run : t -> name:string -> (unit -> Interp.result) -> Interp.result
(** Run a guarded program under an enclosing ["carat"] span on the
    runtime's span clock: move spans and guard-fault instants the run
    triggers nest inside it, and the span lasts at least the
    interpreter's reported cycles.  With tracing off this is just
    [f ()]. *)
