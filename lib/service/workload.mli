(** Workload generators for the service plane.

    Open-loop arrivals (Poisson, bursty MMPP-style on/off) are
    produced by a {!gen} pulled by the load-generator thread;
    closed-loop specs describe client threads that the plane spawns
    itself.  Every stochastic draw comes from the one [Rng.t] handed
    to {!gen}, so an arrival sequence is byte-reproducible from the
    seed and insensitive to draws made anywhere else in the stack. *)

type spec =
  | Poisson of { rps : float; duration_us : float }
      (** Open loop, exponential inter-arrivals at [rps]. *)
  | Bursty of {
      rps_on : float;
      rps_off : float;
      mean_on_us : float;
      mean_off_us : float;
      duration_us : float;
    }
      (** Open loop, Markov-modulated Poisson: alternating on/off
          phases with exponential dwell times and per-phase rates. *)
  | Closed of { clients : int; think_us : float; duration_us : float }
      (** Closed loop: [clients] threads each cycle through
          exponential think time, submit, wait for the reply. *)

val duration_us : spec -> float

val offered_rps : spec -> float
(** Long-run offered arrival rate (for [Closed], the think-time-bound
    upper bound). *)

val is_open : spec -> bool
val describe : spec -> string

type demand =
  | Dfixed  (** Every request costs the executor's configured grant. *)
  | Dpareto of { alpha : float; xmin_us : float; xmax_us : float }
      (** Bounded Pareto per-request cost (heavy tail). *)
  | Dlognorm of { median_us : float; sigma : float }
      (** Lognormal per-request cost. *)

val validate_demand : demand -> unit
(** @raise Invalid_argument on non-sensical parameters. *)

val demand_us : demand -> seed:int -> id:int -> float
(** Per-request service demand in microseconds, or [-1.0] under
    [Dfixed].  A pure stateless hash of [(seed, id)]: its own logical
    RNG stream, independent of every arrival/dispatch draw, stable
    across retries of the same request id, allocation-free. *)

type gen

val gen : spec -> rng:Iw_engine.Rng.t -> gen
(** @raise Invalid_argument on non-positive rates/phase means or when
    pulled on a [Closed] spec. *)

val next : gen -> float option
(** Next absolute arrival time in microseconds, strictly increasing;
    [None] once past the spec's duration. *)

val set_ghz : gen -> float -> unit
(** Set the clock rate used by {!next_cycles}.
    @raise Invalid_argument on a non-positive rate. *)

val next_cycles : gen -> int
(** The next arrival as an absolute cycle count at the {!set_ghz}
    clock ([Units.cycles_of_us] semantics), or [-1] once past the
    duration.  Same draws as {!next}; allocation-free.
    @raise Invalid_argument if the rate was never set. *)
