(** Virtines and the Wasp microhypervisor (§IV-D, §V-E).

    A virtine is a single function executed in its own isolated
    virtual context, created by compiler support and managed by a
    user-space microhypervisor (Wasp).  Start-up latency decomposes
    into explicit stages — context creation, guest memory setup, vCPU
    setup, boot path, runtime init — and the whole point of the
    design is that bespoke contexts {e elide stages}: a snapshot
    restore replaces the boot path, pooling removes creation and
    mapping, and a 16-bit bespoke context (§V-E) never sets up the
    floating-point unit, I/O, or long mode at all.

    Stage costs are modeled in microseconds with small deterministic
    jitter, calibrated to the magnitudes of the virtines paper (KVM
    ioctl costs, snapshot restore, full-OS boots).  The stage elision
    is the real mechanism; the table of E8 falls out of which stages
    a configuration executes. *)

type backend = Kvm | Hyper_v

type profile =
  | Full_linux_boot  (** Commodity stack in the guest. *)
  | Minimal_64  (** Unikernel-style shim, 64-bit, FP initialized. *)
  | Bespoke_16  (** §V-E: 16-bit context, no FP, no I/O, no OS. *)

type config = {
  backend : backend;
  profile : profile;
  snapshot : bool;  (** Restore a pre-booted snapshot instead of booting. *)
  pooled : bool;  (** Draw contexts from a warm pool. *)
  mem_mb : int;
}

val default : config
(** KVM, [Minimal_64], no snapshot, no pool, 2 MB. *)

type stage = {
  stage_name : string;
  stage_us : float;
  elided : bool;  (** True when this configuration skips the stage. *)
}

val stages : config -> stage list
(** The stage-by-stage latency breakdown. *)

val spawn_latency_us : config -> float
(** One virtine creation, start to first guest instruction, unjittered:
    the sum of the stages [config] does not elide. *)

type t
(** A Wasp instance: owns the snapshot cache and context pool. *)

val create : ?obs:Iw_obs.Obs.t -> ?seed:int -> ?pool_size:int -> config -> t
(** Wasp counts its spawns and pool hits ([virtine_spawns],
    [virtine_pool_hits]) on [obs]'s counter set, and {!spawned} and
    {!pool_hits} read them there.  [obs] defaults to a set of its own
    that shares the ambient trace ({!Iw_obs.Obs.inherit_trace}); pass
    a shared one only where nothing else bumps [virtine_*] (the
    service executor passes its kernel's). *)

val call : t -> work_us:float -> float
(** Invoke a virtine function whose body runs [work_us]: returns total
    latency including spawn (or pool dispatch), argument marshalling,
    execution, and teardown.  Pool hits are refilled asynchronously;
    a drained pool falls back to a cold spawn. *)

val call_at : t -> now_us:float -> work_us:float -> float
(** [call] with the caller's clock threaded through: a consumed warm
    context is re-provisioned in the background and only returns to
    the pool one cold-spawn latency after [now_us], so back-to-back
    calls (a burst) can drain the pool and fall back to cold boots.
    Callers that serve requests on a simulated timeline (the service
    plane) use this; [call] keeps the clock-free instant-refill
    behavior.  @raise Invalid_argument naming [now_us] when it is
    earlier than the last [call_at]'s, or NaN. *)

val spawned : t -> int
val pool_hits : t -> int

val call_program :
  t -> ghz:float -> Iw_ir.Programs.program -> int option * float
(** Figure 5's programming model: run a compiled function as a virtine.
    The program executes for real in the IR interpreter inside the
    isolated context; its cycle count converts to microseconds at
    [ghz] and the full invocation latency (spawn + marshalling of the
    arguments + execution + teardown) is returned along with the
    result. *)

(** The FaaS-style evaluation workload (E8). *)
module Faas : sig
  type result = {
    config_name : string;
    mean_us : float;
    p50_us : float;
    p99_us : float;
    spawn_only_us : float;  (** Mean cold spawn latency, no work. *)
  }

  val run :
    ?seed:int -> name:string -> config -> requests:int -> work_us:float -> result
  (** [requests] calls of a [work_us] body on one Wasp instance seeded
      with [seed] (default 7).  Refuses [requests < 1] with
      [Invalid_argument "Wasp.Faas.run: requests must be >= 1"]. *)

  val table : unit -> result list
  (** The standard comparison: full boot, minimal, minimal+snapshot,
      bespoke 16-bit, pooled bespoke. *)

  type load_result = {
    lname : string;
    served : int;
    mean_wait_us : float;  (** Queueing delay before a context frees up. *)
    p99_total_us : float;  (** Queueing + spawn + body + teardown. *)
    utilization : float;  (** Offered service time over capacity. *)
  }

  val run_load :
    name:string ->
    config ->
    rate_per_s:float ->
    duration_s:float ->
    concurrency:int ->
    work_us:float ->
    load_result
  (** The serverless motivation (§IV-D): Poisson arrivals served by at
      most [concurrency] simultaneous contexts.  Start-up cost is part
      of the service time, so a slow context design saturates at a far
      lower request rate; the queueing delay makes that visible.
      Refuses, naming the field, a [rate_per_s] or [duration_s] that
      is not positive and a [concurrency] below 1
      ([Invalid_argument "Wasp.Faas.run_load: rate_per_s must be >
      0"], ["... duration_s must be > 0"], ["... concurrency must be
      >= 1"]). *)
end
