(** Work-stealing deque (Chase-Lev discipline).

    The owner pushes and pops at the bottom; thieves take from the
    top.  The simulation is single-threaded so there are no physical
    races; the cycle costs of the atomic operations are charged by the
    callers. *)

type 'a t

val create : unit -> 'a t
val push_bottom : 'a t -> 'a -> unit
val pop_bottom : 'a t -> 'a option
val steal_top : 'a t -> 'a option
val length : 'a t -> int
