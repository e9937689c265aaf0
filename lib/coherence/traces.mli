(** PBBS-flavored sharing-pattern traces and the Figure 7 experiment.

    Each benchmark surrogate is characterized by how an MPL-compiled,
    disentanglement-aware run classifies its accesses: mostly
    core-private heap data (fork-join tasks mutate their own
    subheaps), some immutable shared input, and a residue of truly
    shared mutable data.  The trace generator produces deterministic
    per-core access streams with those proportions and a working-set
    / locality model; the same streams are then replayed against the
    baseline MESI machine and the selectively-deactivated one. *)

type mix = {
  private_frac : float;  (** Fraction of accesses to core-private data. *)
  ro_frac : float;  (** Fraction to immutable shared data. *)
  private_ws_kb : int;  (** Per-core private working set. *)
  ro_kb : int;
  shared_kb : int;  (** Truly shared mutable region (small = contended). *)
  write_frac_private : float;
  write_frac_shared : float;
  locality : float;  (** Probability an access stays in the hot set. *)
}

type bench = { bench_name : string; mix : mix; accesses_per_core : int }

val samplesort : bench
val bfs : bench
val nbody : bench

val pbbs_suite : bench list

type row = {
  bench : string;
  speedup : float;
  energy_reduction_pct : float;
  base_invalidations : int;
  deact_invalidations : int;
}

val run_bench :
  ?seed:int -> params:Machine.params -> Machine.deactivation -> bench -> Machine.t
(** Replay the benchmark's streams on a fresh machine. *)

val fig7 : params:Machine.params -> unit -> row list
(** Baseline ([Off]) vs deactivated ([Private_and_ro]), whole suite. *)

val average_speedup : row list -> float
val average_energy_reduction : row list -> float
