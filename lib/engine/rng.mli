(** Deterministic pseudo-random number generation for simulations.

    Every stochastic decision in the simulator draws from an explicit
    [Rng.t] so that a run is reproducible from its seed alone.  The
    generator is splitmix64: tiny state, good statistical quality for
    simulation purposes, and trivially splittable. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds yield equal
    streams (under the same global seed offset). *)

val set_global_seed : int -> unit
(** Set the global seed offset, xor-folded into every stream created
    afterwards.  [0] (the default) reproduces the historical streams.
    Set it once, before spawning worker domains. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing
    [t].  Use it to give subsystems their own streams so that adding
    draws in one subsystem does not perturb another. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val raw53 : t -> int
(** Top 53 bits of the next output, as a non-negative [int] — the
    mantissa source behind {!float}, exposed for hot paths that want
    to derive floats locally without boxing.
    [float t b = b *. (float_of_int (raw53 t) /. 2.0 ** 53.)]. *)

val raw62 : t -> int
(** Top 62 bits of the next output, as a non-negative [int] — the
    value behind {!int}'s modulo. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (a Bernoulli draw,
    [float t 1.0 < p]).  Draws nothing when [p <= 0], so a zero
    probability leaves the stream untouched.  Allocation-free. *)

val bool : t -> bool

val gaussian_int : t -> mu:float -> sigma:float -> int
(** A Box-Muller normal deviate, truncated toward zero.
    Allocation-free. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
