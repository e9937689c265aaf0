(** A private per-core cache: set-associative, LRU, with MESI line
    states.  One level stands in for the L1/L2 hierarchy of the §V-B
    evaluation machine; capacity is configurable per platform. *)

type state = Modified | Exclusive | Shared_state | Invalid

type t

val create : size_kb:int -> ways:int -> line_bytes:int -> t
(** @raise Invalid_argument naming the parameter when [size_kb] or
    [ways] is not positive, [line_bytes] is not a power of two, or the
    lines do not divide into [ways]-way sets. *)

val line_of_addr : t -> int -> int
(** Line (block) number containing a byte address. *)

val lookup : t -> int -> state
(** State of the line containing this address ([Invalid] if absent). *)

val install : t -> int -> state -> int
(** Install the line containing [addr] with the given state; LRU
    within the set.  Returns [-1] when no valid line was displaced,
    otherwise the displaced line packed into one non-negative int —
    read it with {!evicted_line} and {!evicted_state}.  An int rather
    than an option, so the replay's hot path allocates nothing. *)

val evicted_line : int -> int
(** Line number of a non-negative {!install} result. *)

val evicted_state : int -> state
(** State the displaced line had (never [Invalid]) for a non-negative
    {!install} result. *)

val set_state : t -> int -> state -> unit
(** Change the state of a resident line (no-op if absent). *)

val invalidate : t -> int -> unit
(** Drop the line containing [addr]. *)

val resident : t -> int -> bool

val fold : t -> init:'a -> f:('a -> int -> state -> 'a) -> 'a
(** Fold over resident (non-invalid) lines as (line, state). *)
