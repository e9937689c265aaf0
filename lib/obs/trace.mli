(** Span/instant trace bus keyed on virtual cycles.

    The record is exposed concretely so probe sites compile the
    [enabled] guard down to a load and a branch — with the null sink a
    probe costs nothing measurable, which is what lets us leave probes
    in every hot path of the stack. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_cpu : int;  (** simulated CPU = one Chrome "process"; -1 = machine-wide *)
  ev_ts : int;  (** virtual cycles *)
  ev_dur : int;  (** 0 for instants *)
  ev_flow : int;
      (** 0 for spans/instants; {!flow_start}/{!flow_step}/
          {!flow_finish} for flow events (Chrome ph "s"/"t"/"f"). *)
  ev_id : int;  (** flow id (request id); 0 unless [ev_flow <> 0] *)
}

val flow_start : int
val flow_step : int
val flow_finish : int

type t = {
  mutable enabled : bool;
  mutable flows : bool;
      (** Flow probes need this additional opt-in ({!set_flows}), so
          span-shape goldens and default traces never see them. *)
  buf : event array;
  cap : int;
  mutable pos : int;
  mutable emitted : int;
  mutable cpu_base : int;
      (** Added to every non-negative [ev_cpu] at emission: a fleet
          coordinator sets this per machine so spans from N machines
          land on disjoint CPU lanes of one shared sink. *)
  mutable flow_base : int;
      (** Added to every flow id at emission; see {!new_flow_scope}. *)
  shape : (string, int ref) Hashtbl.t option;
}

val null : unit -> t
(** Disabled sink: probes are a load + branch, nothing is stored. *)

val ring : ?capacity:int -> unit -> t
(** Enabled bounded ring sink (default capacity 262144 events);
    oldest events are overwritten and counted as {!dropped}. *)

val counting : unit -> t
(** Enabled sink that stores no events, only per-["cat/name"] tallies
    — the coarse trace *shape* of a run.  Golden-gating these counts
    catches a probe that silently stops firing even when the counter
    totals still agree. *)

val shape_counts : t -> (string * int) list
(** ["cat/name"] event tallies sorted by key; [[]] unless the sink
    was built by {!counting}. *)

val enabled : t -> bool

val set_flows : t -> bool -> unit
val flows_enabled : t -> bool
(** [enabled t && t.flows]: whether {!flow} probes record. *)

val set_cpu_base : t -> int -> unit
(** See [cpu_base]. *)

val new_flow_scope : t -> unit
(** Open a fresh flow-id namespace: every subsequent {!flow} id gets a
    new per-scope base added.  Each service/fleet run calls this once
    at start so request handles (which restart at 0 per run) stay
    unique flow ids across an experiment sweep traced into one ring. *)

val span : t -> name:string -> ?cat:string -> cpu:int -> ts:int -> dur:int -> unit -> unit
(** Complete span: [ts .. ts + dur] on CPU [cpu]'s track. *)

val instant : t -> name:string -> ?cat:string -> cpu:int -> ts:int -> unit -> unit

val flow :
  t -> name:string -> ?cat:string -> phase:int -> id:int -> cpu:int ->
  ts:int -> unit -> unit
(** One point of a causal flow (default cat ["flow"]): [phase] is
    {!flow_start} at the origin, {!flow_step} at each hop, and
    {!flow_finish} at the terminus; all points of one flow share
    [id].  Recorded only when both [enabled] and [flows] are set.
    @raise Invalid_argument on a phase outside [1..3]. *)

val emitted : t -> int
(** Total events ever pushed (including overwritten ones). *)

val dropped : t -> int
(** Events lost to ring overwrite. *)

val length : t -> int
(** Events currently held. *)

val events : t -> event list
(** Current contents, oldest first. *)
