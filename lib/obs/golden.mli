(** Golden snapshots: one pinned text file per experiment under
    golden/, [ID.txt], holding the run's counter totals, then a
    ["## spans"] section of span tallies and a ["## output"] section
    with the rendered tables.  [dune runtest] diffs each file exactly
    against a fresh [interweave golden ID]; [dune promote] refreshes
    it.

    {!default_tolerances} and {!compare_counters} remain only for
    benchsuite's seed-0 counter check, which reads the counter part
    through {!read_file}. *)

type tolerance = Exact | Pct of float

val default_tolerances : (string * tolerance) list
(** Percentage slack for the timing-derived scheduling-noise counters
    (ticks, timer fires, preemptions, ...); everything else is exact. *)

type drift = {
  d_counter : string;
  d_expected : int;
  d_actual : int;
  d_allowed : int;
}

val render_drift : drift -> string

val render : ?header:string list -> (string * int) list -> string
(** Snapshot text: ['# '] header lines, then "name value" lines
    sorted by name. *)

val render_file :
  header:string list ->
  counters:(string * int) list ->
  spans:(string * int) list ->
  output:string ->
  string
(** One experiment's pinned file: {!render} of [header] and
    [counters], then ["## spans"] and the sorted [spans] tallies, then
    ["## output"] and [output] verbatim. *)

val parse : string -> (string * int) list
(** Read the counters back: comments and blanks are skipped, and
    reading stops at the first ["## "] line, so a {!render_file}
    yields exactly its counters.  Raises [Invalid_argument] on a
    malformed line above that marker. *)

val compare_counters :
  ?tolerances:(string * tolerance) list ->
  expected:(string * int) list ->
  (string * int) list ->
  drift list
(** Drifts beyond tolerance over the *union* of counter names (absent
    = 0 on either side), sorted by name; empty means the gate passes. *)

val read_file : string -> (string * int) list
(** {!parse} of a file's contents. *)
