(** The per-machine observability context: typed counters + trace bus.

    Exposed concretely so hot paths bump counters and guard probes
    without any indirection. *)

type t = {
  counters : Counter.set;
  trace : Trace.t;
  collect : bool;
      (** when set, every {!inherit_trace} under this ambient registers
          its fresh counter set here for {!total_counters} *)
  mutable children : Counter.set list;
}

val create : ?trace:Trace.t -> ?collect:bool -> unit -> t
(** Fresh counters; [trace] defaults to the null sink, [collect] to
    [false]. *)

val ambient : unit -> t
(** The current domain's ambient context.  Each domain starts with its
    own null context, so parallel experiment runs stay independent. *)

val inherit_trace : unit -> t
(** Fresh counters sharing the ambient context's trace — the default
    for newly created components, so per-component counts stay
    independent while probes land in the scoped trace.  If the ambient
    was created with [~collect:true], the fresh set is also registered
    on it for {!total_counters}. *)

val total_counters : t -> Counter.set
(** Cell-wise sum of [t]'s own counters and every child set collected
    via {!inherit_trace} — the machine-wide event totals for one
    scoped run. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Run [f] with [obs] as this domain's ambient context, restoring the
    previous one afterwards (also on exceptions). *)
