(** A corpus of IR benchmark programs.

    Surrogates for the suites the paper's compiler work evaluates on
    (NAS, Mantevo, PARSEC — §IV-A; plus microbenchmarks for the
    timing pass of §IV-C).  Each program computes something real and
    checkable; its memory structure (dense streaming, stencils,
    indirect accesses, pointer chasing, allocation churn) determines
    how much instrumentation the passes can hoist.

    Programs are rebuilt on each call because passes mutate modules
    in place. *)

type program = {
  name : string;
  suite : string;  (** "nas" | "mantevo" | "parsec" | "micro" *)
  build : unit -> Ir.modul;
  entry : string;  (** Function to run. *)
  args : int list;
  expected : int option;  (** Known return value, when checkable. *)
  description : string;
}

val stream_triad : int -> program
(** a[i] = b[i] + s*c[i] over [n] elements (STREAM/Mantevo flavor). *)

val vec_sum : int -> program
(** Reduction; returns the sum of 0..n-1 laid out in memory. *)

val mat_mul : int -> program
(** Dense n x n matrix multiply (NAS BT/SP compute flavor). *)

val stencil_1d : int -> program
(** 3-point stencil sweep (Mantevo miniFE flavor). *)

val pointer_chase : int -> program
(** Linked-list traversal: bases reloaded each step, nothing to
    hoist (PARSEC dedup flavor). *)

val alloc_churn : int -> program
(** Allocate/initialize/free in a loop: tracking-dominated (PARSEC
    canneal flavor). *)

val histogram : int -> program
(** Data-dependent scatter increments (PARSEC streamcluster
    flavor). *)

val fib_rec : int -> program
(** Recursive Fibonacci: call-heavy control flow for the timing
    pass. *)

val carat_suite : unit -> program list
(** The eleven-benchmark suite used for the CARAT overhead table. *)

val timing_suite : unit -> program list
(** Programs used to validate bounded callback gaps. *)
