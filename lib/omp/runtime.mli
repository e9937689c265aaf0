(** An OpenMP-style runtime with four execution modes (§V-A).

    The same worksharing API runs over four stacks:

    - [Linux_user]: the commodity baseline — the runtime lives in user
      space; every wake/block crosses the kernel boundary (futexes),
      and memory is demand-paged.
    - [Rtk] (runtime-in-kernel): libomp ported into Nautilus; runtime
      calls are ordinary kernel calls, wakes are cheap, identity
      mapping removes paging overhead.
    - [Pik] (process-in-kernel): unmodified user binaries run inside
      the kernel through the PIK simulacrum; like RTK plus a small
      per-call shim.
    - [Cck] (custom compilation for kernel): OpenMP pragmas compile
      directly to kernel tasks ({!Iw_kernel.Task}); no persistent
      team, no barrier — taskwait only.

    Teams are persistent: [parallel_for] reuses sleeping workers, as
    libomp does. *)

type mode = Linux_user | Rtk | Pik | Cck

val mode_name : mode -> string

val personality_of_mode : mode -> Iw_hw.Platform.t -> Iw_kernel.Os.t
(** Which OS model the mode runs on (Linux_user -> linux; others ->
    nautilus). *)

type schedule =
  | Static
  | Dynamic of int  (** chunk size *)
  | Guided of int  (** minimum chunk size *)

type t

val create : Iw_kernel.Sched.t -> mode -> nthreads:int -> t
(** Spawn the team (from outside the simulation, before {!Iw_kernel.Sched.run},
    or from inside a thread).  Worker [i] is bound to CPU [i]; an idle
    worker spin-waits for the next region ({!Iw_kernel.Api.spin_until}).
    Raises [Invalid_argument] naming [nthreads] when it is under 1 or
    over the kernel's CPU count. *)

val parallel_for :
  t ->
  ?schedule:schedule ->
  iters:int ->
  iter_cycles:(int -> int) ->
  unit ->
  unit
(** Execute a worksharing loop; call from the master thread (the
    thread that will also act as team member 0).  [iter_cycles i] is
    the work of iteration [i].  Returns when all iterations complete
    (implicit barrier, except CCK which task-waits).  Raises
    [Invalid_argument] naming the field when [iters] is negative or a
    [Dynamic] or [Guided] chunk is under 1. *)

val shutdown : t -> unit
(** Dismiss the team (call from the master thread). *)

val regions : t -> int
(** Worksharing regions run on this runtime's kernel: its
    [omp_regions] counter. *)
