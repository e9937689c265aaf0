(** Folded-stack ("frame;frame count") export for flamegraph.pl and
    speedscope's folded importer.  Counts are self cycles. *)

val to_string : Profile.t -> string
(** One line per unique stack path, paths sorted, counts = self
    cycles; line counts sum to [Profile.total_cycles]. *)

val write_file : Profile.t -> string -> unit

val check : string -> total:int -> (int, string) result
(** Validate a folded export: parses, and the counts sum to [total]
    (the profile's traced cycles).  Returns the line count. *)

val check_file : string -> total:int -> (int, string) result
