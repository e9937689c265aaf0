(** Conversions between wall-clock time and cycles.

    All simulation arithmetic is in integer cycles; a platform's clock
    frequency (GHz) defines the exchange rate to nanoseconds and
    microseconds. *)

val cycles_of_us : ghz:float -> float -> int
val us_of_cycles : ghz:float -> int -> float
