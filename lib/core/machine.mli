(** The single machine context threaded through every layer (§II–III).

    A [Machine.t] bundles the stack configuration ({!Stack.t}: platform
    + OS personality + memory/timing/event choices), the observability
    context ({!Iw_obs.Obs.t}: typed counters + trace bus), and the
    booted kernel.  Hardware, kernel, and runtime components created
    under this machine report into the same counters and trace, so a
    single Perfetto track set shows irq spans, context switches, and
    runtime promotions against one virtual-cycle axis. *)

type t = {
  stack : Stack.t;
  obs : Iw_obs.Obs.t;
  kernel : Iw_kernel.Sched.t;
}

val boot :
  ?seed:int -> ?quantum_us:float -> ?trace:Iw_obs.Trace.t -> Stack.t -> t
(** Boot a kernel for the stack with a fresh observability context.
    [trace] defaults to the null sink (probes cost a predictable
    branch); pass {!Iw_obs.Trace.ring} to record. *)

val stack : t -> Stack.t
val obs : t -> Iw_obs.Obs.t
val kernel : t -> Iw_kernel.Sched.t
val platform : t -> Iw_hw.Platform.t
val sim : t -> Iw_engine.Sim.t
val trace : t -> Iw_obs.Trace.t
val counters : t -> Iw_obs.Counter.set
val run : t -> unit

val counter_table : t -> Table.t
(** Every counter that fired, rendered like the experiment tables. *)

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
