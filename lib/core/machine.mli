(** Machine-level views over the layers: a fleet's per-machine counter
    tables and the sweepable cost model.  The one context every layer
    shares is {!Iw_obs.Obs.t}: pass it to [Sched.boot ~obs], or scope
    it with {!Iw_obs.Obs.with_ambient}. *)

(** Per-machine identity over shared counter vocabulary: fold the
    per-machine counter lists of a fleet run into one table (machine,
    counter, events) plus a totals row. *)
module Fleet : sig
  val counter_table : (string * (string * int) list) list -> Table.t
  (** [counter_table [(machine_name, Counter.to_list set); ...]]. *)

  val total : (string * (string * int) list) list -> string -> int
  (** Sum of one named counter across every machine. *)
end

(** The sweepable cost model: every [Platform.costs] field by name,
    with a pinned probe workload for sensitivity tables. *)
module Sweep : sig
  type field = {
    f_name : string;
    f_doc : string;
    get : Iw_hw.Platform.costs -> int;
    set : Iw_hw.Platform.costs -> int -> Iw_hw.Platform.costs;
  }

  val fields : field list
  (** Every cost field, in declaration order. *)

  val names : string list
  val find : string -> field option

  val with_value : Iw_hw.Platform.t -> field -> int -> Iw_hw.Platform.t

  val default_values : Iw_hw.Platform.t -> field -> int list
  (** 0, v/4, v/2, v, 2v, 4v around the platform's current value. *)

  val sensitivity : ?plat:Iw_hw.Platform.t -> field -> int list -> Table.t
  (** Run the pinned probe workload (a small contended multi-thread
      mix under the Nautilus and Linux personalities) at each value of
      the field and tabulate elapsed cycles, overhead share, and delta
      vs the platform default. *)

  val grid :
    ?plat:Iw_hw.Platform.t ->
    ?os:[ `Nk | `Linux ] ->
    field ->
    field ->
    int list ->
    int list ->
    Table.t
  (** 2-D sweep: probe elapsed cycles as a matrix over the cross
      product of two fields' values (first field = rows). *)
end
