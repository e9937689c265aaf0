(** EPCC-style OpenMP microbenchmarks (§V-A: all three kernel OpenMP
    implementations run the full Edinburgh suite).

    Measures the overhead of the core OpenMP constructs under each
    execution mode, the EPCC way: time R = 50 repetitions of a
    construct wrapping a fixed delay, subtract the ideal time, divide
    by R. *)

type construct = Parallel_region | Barrier_only | Dynamic_for | Static_for

val construct_name : construct -> string

type row = {
  construct : construct;
  mode : Runtime.mode;
  nthreads : int;
  overhead_cycles_per_construct : float;
}

val measure :
  Iw_hw.Platform.t ->
  Runtime.mode ->
  nthreads:int ->
  construct ->
  row

val table :
  Iw_hw.Platform.t ->
  modes:Runtime.mode list ->
  nthreads:int ->
  row list
(** All constructs x all modes. *)
