(** Sample accumulators and summary statistics for experiments. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type t
(** A growable series of float samples. *)

val create : unit -> t

val add : t -> float -> unit

val add_int : t -> int -> unit

val count : t -> int

val total : t -> float

val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float
(** @raise Invalid_argument when empty. *)

val max_value : t -> float
(** @raise Invalid_argument when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]], nearest-rank on the
    sorted samples.  @raise Invalid_argument when empty. *)

val summary : t -> summary
(** @raise Invalid_argument when empty. *)

val coefficient_of_variation : t -> float
(** stddev / mean; 0 when the mean is 0. *)

val samples : t -> float array
(** Copy of the raw samples, in insertion order. *)

(** Named integer counters, for event/message accounting. *)
module Counters : sig
  type nonrec t

  val create : unit -> t
  val incr : t -> string -> unit
  val add : t -> string -> int -> unit
  val get : t -> string -> int
  val to_list : t -> (string * int) list
  (** Sorted by name. *)

  val reset : t -> unit
end
