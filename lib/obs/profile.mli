(** Span-stack reconstruction and self/total cycle aggregation.

    Rebuilds per-CPU call trees from the trace ring's complete-span
    [(ts, dur)] intervals: nesting by interval containment, ties (same
    interval) broken by emit order — spans are emitted at completion,
    so on equal intervals the later emit is the parent.  Children
    leaking past their parent's end are clipped to it, making the
    accounting exact: self cycles sum to {!total_cycles}. *)

type frame = { f_cpu : int; f_cat : string; f_name : string }

type row = {
  r_frame : frame;
  r_count : int;  (** spans aggregated into this frame *)
  r_self : int;  (** cycles in this frame minus nested spans *)
  r_total : int;  (** cycles with nested spans included *)
}

type t = {
  rows : row list;  (** self descending, then (cpu, cat, name) *)
  folded : (string * int) list;
      (** ["cpu 0;hw:work;..." -> self cycles], path ascending; only
          frames with nonzero self *)
  total_cycles : int;  (** sum of root span durations = sum of selfs *)
  span_count : int;
  instant_count : int;
  dropped : int;
}

val of_events : ?dropped:int -> Trace.event list -> t
(** Reconstruct from an explicit oldest-first event list (instants are
    counted but do not contribute cycles). *)

val of_trace : Trace.t -> t
(** [of_events] on the ring's current contents, with its drop count. *)

val total_cycles : t -> int

val render_top : ?top:int -> t -> string
(** Plain-text top-N frames table (count/self/total/self%%), preceded
    by a one-line span/instant/dropped/total summary. *)

(** {1 Two-run comparison} *)

type diff_row = {
  d_label : string;  (** ["cat:name"], summed across CPUs. *)
  d_self_a : int;
  d_self_b : int;
  d_share_a : float;  (** Percent of run A's total cycles. *)
  d_share_b : float;
  d_delta : float;  (** [d_share_b - d_share_a], percentage points. *)
}

val render_diff : ?threshold:float -> a_name:string -> b_name:string -> t -> t -> string
(** Plain-text table of {!diff}. *)
