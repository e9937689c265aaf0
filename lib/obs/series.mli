(** Windowed time series: named integer columns sampled together on
    the virtual clock into a preallocated ring.

    Columns are closures ([unit -> int]) so any layer can expose
    counter deltas, gauges, or windowed percentiles without this
    module depending on it.  Sampling writes one int per column into
    the ring — allocation-free in steady state — and reads nothing it
    mutates, so sampling on/off leaves a run's tables byte-identical
    (DESIGN §10). *)

type col

val col : name:string -> (unit -> int) -> col
(** Gauge column: sampled value is the reading itself. *)

val dcol : name:string -> (unit -> int) -> col
(** Delta column over a monotone reading: each sample reports the
    increase since the previous sample. *)

type t

val create :
  ?capacity:int -> name:string -> cols:col list -> ?post:(unit -> unit) list ->
  unit -> t
(** A series with a ring of [capacity] samples (default 4096; older
    samples are overwritten and counted as {!dropped}).  [post] hooks
    run after every sample — the service layer uses them to advance
    latency-histogram windows so percentile columns are per-window,
    not cumulative. *)

val name : t -> string
val col_names : t -> string list

val sample : t -> ts:int -> unit
(** Read every column (in declared order), store the row at [ts],
    then run the [post] hooks. *)

val length : t -> int
(** Samples currently retained. *)

val dropped : t -> int

val ts_at : t -> int -> int
(** Timestamp of retained sample [i], oldest first. *)

val get : t -> int -> int -> int
(** [get t i c]: column [c] of retained sample [i], oldest first. *)

val to_csv : t -> string
(** Deterministic CSV: header [ts_cycles,<cols>] then one row per
    retained sample, oldest first, all values as raw ints. *)

val write_csv : t -> string -> unit

(** {2 Ambient sampling period}

    Set once by the CLI before a run; runs without an explicit period
    sample at this one when it is positive.  A plain global (read by
    every domain), so set it before spawning workers. *)

val set_period_us : float -> unit
(** 0 turns sampling off.  @raise Invalid_argument, naming
    [period_us], on a negative or NaN period. *)

val period_cycles : cyc:(float -> int) -> int
(** The ambient period in cycles of a run's clock ([cyc] converts
    microseconds); 0 when sampling is off.  @raise Invalid_argument,
    naming [period_us], if the period is below one cycle. *)

(** {2 Published series}

    Domain-local registry: a run deposits its series so an exporter
    on the same domain (e.g. the trace CLI's Chrome counter-track
    renderer) can pick them up afterwards. *)

val publish : t -> unit
val published : unit -> t list
val clear_published : unit -> unit
