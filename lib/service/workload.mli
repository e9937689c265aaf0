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
(** @raise Invalid_argument, naming the field, on a parameter outside
    its range, NaN or infinite: Pareto needs [0 < xmin_us < xmax_us]
    and [alpha > 0], lognormal [median_us > 0] and [sigma >= 0]. *)

val demand_bound_us : demand -> float
(** No draw of {!demand_us} exceeds this: [xmax_us] for Pareto,
    [median_us * e^(8.66 sigma)] for lognormal; [-1.0] under
    [Dfixed]. *)

val demand_us : demand -> seed:int -> id:int -> float
(** Per-request service demand in microseconds, or [-1.0] under
    [Dfixed].  A pure stateless hash of [(seed, id)]: its own logical
    RNG stream, independent of every arrival/dispatch draw, stable
    across retries of the same request id.  Its float result is boxed
    across a module boundary; hot paths use {!demand_cycles}. *)

val demand_cycles :
  demand -> seed:int -> id:int -> scale:float -> ghz:float -> int
(** [demand_us] scaled by [scale] and converted to cycles at [ghz]
    ([Units.cycles_of_us] rounding), at least 1; [-1] under [Dfixed].
    Allocation-free. *)

type gen

val gen : spec -> rng:Iw_engine.Rng.t -> ghz:float -> gen
(** Arrivals of [spec] drawn from [rng], on a [ghz] clock.
    @raise Invalid_argument, naming the field, on a [ghz], Poisson
    rate or phase mean that is not positive, a negative bursty rate
    or duration, or NaN in any of them. *)

val next_cycles : gen -> int
(** The next arrival time, drawn in microseconds (strictly
    increasing) and returned as an absolute cycle count at the {!gen}
    clock ([Units.cycles_of_us] semantics), or [-1] once past the
    spec's duration.  Allocation-free.  @raise Invalid_argument on a
    [Closed] spec. *)
