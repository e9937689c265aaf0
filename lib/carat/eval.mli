(** The CARAT overhead study (E7, §IV-A).

    For each benchmark: run clean, run naively instrumented, run with
    aggregation+hoisting — all three against a live CARAT runtime so
    guards really validate and allocation really goes through the
    region table.  The paper's claim is <6% geomean overhead for the
    optimized configuration. *)

type row = {
  name : string;
  suite : string;
  base_cycles : int;
  naive_pct : float;
  optimized_pct : float;
  static_guards_naive : int;
  static_guards_opt : int;  (** Exact + region guards after hoisting. *)
  dyn_guards_naive : int;
  dyn_guards_opt : int;
}

val table : unit -> row list
(** The full CARAT suite. *)

val geomean_naive : row list -> float
val geomean_optimized : row list -> float
