(** Sample accumulators and summary statistics for experiments. *)

type t
(** A growable series of float samples. *)

val create : unit -> t

val add : t -> float -> unit

val add_int : t -> int -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float
(** @raise Invalid_argument when empty. *)

val max_value : t -> float
(** @raise Invalid_argument when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]], nearest-rank on the
    sorted samples.  @raise Invalid_argument when empty. *)

val coefficient_of_variation : t -> float
(** stddev / mean; 0 when the mean is 0. *)
