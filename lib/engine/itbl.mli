(** Flat open-addressing hash table with [int] keys.

    A low-overhead replacement for [Hashtbl] on hot paths: keys live
    in a flat int array probed linearly, so lookups do no allocation
    and touch one cache line in the common case.  Not resistant to
    adversarial keys; intended for engine-internal tables (directory
    state, sequence counters).

    Keys [min_int] and [min_int + 1] are reserved as slot markers;
    passing either raises [Invalid_argument]. *)

type 'v t

val create : ?capacity:int -> dummy:'v -> unit -> 'v t
(** [dummy] is returned by {!find} on a miss and passed to {!mutate}'s
    callback for absent keys; it must be a value the caller can
    distinguish from real bindings (or callers must use {!mem}). *)

val mem : 'v t -> int -> bool

val find : 'v t -> int -> 'v
(** Returns the table's [dummy] when the key is absent. *)

val set : 'v t -> int -> 'v -> unit

val mutate : 'v t -> int -> ('v -> 'v) -> 'v
(** [mutate t k f] replaces [k]'s binding [v] with [f v] in a single
    probe and returns the {e old} value ([dummy] if absent, in which
    case [f dummy] is inserted). *)

val remove : 'v t -> int -> unit

val iter : (int -> 'v -> unit) -> 'v t -> unit
(** Iteration order is unspecified. *)
