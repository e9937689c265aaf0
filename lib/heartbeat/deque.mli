(** Work-stealing deque (Chase-Lev discipline), as an array ring.

    The owner pushes and pops at the bottom; thieves take from the
    top.  The simulation is single-threaded so there are no physical
    races; the cycle costs of the atomic operations are charged by the
    callers.  Pops and steals are O(1) and allocate nothing; a push
    allocates only when it doubles the ring. *)

type 'a t

val create : 'a -> 'a t
(** [create nil]: an empty deque.  [nil] fills the slots no element
    holds, so a popped element is not kept alive by the ring. *)

val push_bottom : 'a t -> 'a -> unit

val pop_bottom : 'a t -> 'a
(** The newest element.  @raise Invalid_argument if empty. *)

val steal_top : 'a t -> 'a
(** The oldest element.  @raise Invalid_argument if empty. *)

val is_empty : 'a t -> bool
val length : 'a t -> int
