(** MESI + directory coherence with selective deactivation (§V-B).

    Cores issue (address, read/write) accesses carrying a {e hint}
    from the language runtime: data known private to one core, data
    known immutable, or ordinary shared data.  Baseline MESI tracks
    everything in the directory; with deactivation enabled, hinted
    classes bypass coherence entirely — private data is homed and
    fetched locally with no directory indirection, read-only data is
    replicated without sharer tracking.  Cycles, protocol messages,
    and interconnect energy are all counted per access, so the
    speedup and energy claims of Fig. 7 fall out of message
    arithmetic, not curve fitting. *)

type hint = Shared_data | Private_to of int | Read_only

type deactivation = Off | Private_only | Private_and_ro

type params = {
  cores : int;
  cores_per_socket : int;
  cache_kb : int;  (** Private cache per core. *)
  ways : int;
  line_bytes : int;
  l1_hit : int;
  dir_lookup : int;
  hop_latency : int;  (** One interconnect hop, one way. *)
  mem_latency : int;
  cache_to_cache : int;
  inval_cost : int;  (** Per invalidation target. *)
  ctrl_energy : float;  (** Per control message per hop. *)
  data_energy : float;  (** Per data message per hop. *)
}

val default_params : cores:int -> cores_per_socket:int -> params

type counters = {
  accesses : int;
  hits : int;
  misses : int;
  dir_requests : int;
  invalidations : int;
  data_transfers : int;
  writebacks : int;
  ctrl_msgs : int;
  data_msgs : int;
}

type t

val max_cores : int
(** The most cores a machine can have: [Sys.int_size - 1], 62 on a
    64-bit host.  The directory keeps one int per line, the sharer set
    as a bitmask with bit [i] for core [i] and the sign bit as the
    single-owner tag, so the mask's width is the limit. *)

val create : ?obs:Iw_obs.Obs.t -> ?params:params -> deactivation -> t
(** A machine with empty caches and directory.
    @raise Invalid_argument naming the field when [cores] is outside
    [1..max_cores], [cores_per_socket < 1], or {!Cache.create} refuses
    [cache_kb], [ways] or [line_bytes]. *)

val params : t -> params
val access : t -> core:int -> addr:int -> write:bool -> hint:hint -> unit
val core_cycles : t -> int -> int
val makespan : t -> int
(** Max per-core cycle total: the simulated execution time. *)

val epoch : t -> name:string -> unit
(** Emit an epoch-boundary instant (cat ["coherence"], machine track)
    at the current makespan; free when tracing is off. *)

val counters : t -> counters
val interconnect_energy : t -> float

val swmr_holds : t -> bool
(** The single-writer-multiple-reader invariant over every line that
    has ever been coherence-tracked: an M/E copy excludes all other
    copies.  Deactivated (hinted) lines are exempt by design — that
    is what deactivation means.  An [Off] machine tracks every line
    it touches, so there it covers every resident line. *)
