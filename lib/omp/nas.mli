(** NAS-parallel-benchmark surrogates and the Figure 6 experiment.

    BT and SP are modeled by their OpenMP structure: timesteps, each a
    fixed sequence of worksharing regions with characteristic
    iteration counts, per-iteration work, and memory profile
    (footprint and locality, which determine how much the commodity
    stack pays in TLB walks that the identity-mapped kernel modes do
    not).  First-touch faults are treated as untimed initialization,
    as NAS reporting does. *)

type region_spec = {
  rs_iters : int;
  rs_cycles : int;  (** base cycles per iteration *)
  rs_sched : Runtime.schedule;
}

type benchmark = {
  nas_name : string;
  steps : int;
  step_regions : region_spec list;
  footprint_kb : int;
  locality : float;
  accesses_per_iter : int;
}

val bt : benchmark
val sp : benchmark
val cg : benchmark
val ep : benchmark

val memory_penalty_per_iter : Iw_hw.Platform.t -> Runtime.mode -> benchmark -> int
(** Extra cycles per iteration charged by the memory system (TLB
    walks under demand paging; 0 under identity mapping). *)

type result = {
  bench : string;
  mode : Runtime.mode;
  nthreads : int;
  elapsed_cycles : int;
  speedup_vs_serial : float;
}

val run :
  Iw_hw.Platform.t ->
  Runtime.mode ->
  nthreads:int ->
  benchmark ->
  result

val relative_performance :
  Iw_hw.Platform.t ->
  modes:Runtime.mode list ->
  scales:int list ->
  benchmark ->
  (Runtime.mode * (int * float) list) list
(** Fig. 6: for each mode, performance relative to [Linux_user] at the
    same scale (higher = better; Linux = 1.0). *)
