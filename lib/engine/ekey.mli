(** Packed [(time, sequence)] event keys.

    One native int holds the event time in its high bits and a
    per-time sequence number in the low 18 bits, so the simulator's
    total event order is plain integer [<]. *)

val seq_limit : int
(** [2 ^ 18]: max events sharing one timestamp. *)

val max_time : int
(** Largest representable time. *)

val pack : time:int -> seq:int -> int
(** @raise Invalid_argument when either component is out of range. *)

val time : int -> int

val seq : int -> int
