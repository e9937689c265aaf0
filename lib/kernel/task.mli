(** SoftIRQ-like task framework (§V-A, CCK backend).

    Nautilus's task framework accepts work with a compiler-estimated
    size.  Tasks whose estimated size is at most {!inline_threshold}
    run immediately in the submitter's context (the paper's "in the
    scheduler itself, even in interrupt context"); larger tasks queue
    per-CPU and are drained by bound worker threads.

    A task here is a cycle count: one body, given to {!create}, runs
    every task with its count, which is also the compiler's estimate.
    Tasks travel in reusable {!handle}s linked into per-CPU FIFOs, so
    submitting, running and waiting allocate nothing but the
    coroutine pauses they make. *)

type t
type handle

val create : Sched.t -> (int -> unit) -> t
(** [create k run]: start one worker thread per CPU; a task of [n]
    cycles runs as [run n]. *)

val inline_threshold : int
(** Cycles (2000): a task at or under it runs inline at submission. *)

val handle : unit -> handle
(** A fresh handle, reusable once the task it last carried finished. *)

val submit : t -> handle -> cpu:int -> int -> unit
(** [submit t h ~cpu n]: from inside a thread, run a task of [n]
    cycles in [h], inline or queued on [cpu]'s worker.  Raises
    [Invalid_argument] if [h]'s previous task has not finished. *)

val wait : handle -> unit
(** Block until the handle's task has run. *)

val shutdown : t -> unit
(** Stop the workers once all queued tasks have drained.  Must be
    called from inside a thread; returns after all workers exit. *)

val executed : t -> int
val inlined : t -> int
